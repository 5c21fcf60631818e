// Command magic-train trains a MAGIC (DGCNN) malware classifier and saves
// it as JSON. The training corpus is either one of the built-in synthetic
// generators (-corpus mskcfg / yancfg, see DESIGN.md "Substitutions") or a
// dataset file previously written with the dataset JSON-lines format
// (-corpus path/to/file.jsonl).
//
// Usage:
//
//	magic-train -corpus mskcfg -samples 360 -epochs 20 -out model.json
//
// Exit status: 0 when the model was trained and saved, 1 when loading the
// corpus, training or saving failed, 2 for a usage error such as an unknown
// -pooling, -head or -conv.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/malgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run trains and saves one model and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("magic-train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	corpus := fs.String("corpus", "mskcfg", "training corpus: mskcfg, yancfg, or a dataset .jsonl path")
	samples := fs.Int("samples", 360, "synthetic corpus size (ignored for file corpora)")
	epochs := fs.Int("epochs", 20, "training epochs")
	seed := fs.Int64("seed", 1, "random seed")
	poolingName := fs.String("pooling", "adaptive", "pooling type: adaptive or sort")
	convName := fs.String("conv", "", "graph-convolution backend: "+strings.Join(core.ConvBackendNames(), ", ")+" (empty = gcn, the paper's rule)")
	hops := fs.Int("hops", 0, "propagation hops for -conv tag (0 = default 2)")
	headName := fs.String("head", "conv1d", "remaining layer for sort pooling: conv1d or weightedvertices")
	ratio := fs.Float64("ratio", 0.64, "pooling ratio")
	valFrac := fs.Float64("val", 0.2, "validation fraction for model selection")
	out := fs.String("out", "magic-model.json", "output model path")
	quiet := fs.Bool("quiet", false, "suppress per-epoch logs")
	workers := fs.Int("workers", 0, "data-parallel workers for extraction and training (0 = GOMAXPROCS); results are identical at any value")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "magic-train:", msg)
		fs.Usage()
		return 2
	}
	if *workers < 1 {
		*workers = runtime.GOMAXPROCS(0)
	}

	conv := strings.ToLower(*convName)
	if conv != "" && !slices.Contains(core.ConvBackendNames(), conv) {
		return usage(fmt.Sprintf("unknown conv %q", *convName))
	}
	var pooling core.PoolingType
	switch strings.ToLower(*poolingName) {
	case "adaptive":
		pooling = core.AdaptivePooling
	case "sort":
		pooling = core.SortPooling
	default:
		return usage(fmt.Sprintf("unknown pooling %q", *poolingName))
	}
	var head core.HeadType
	switch strings.ToLower(*headName) {
	case "conv1d":
		head = core.Conv1DHead
	case "weightedvertices":
		head = core.WeightedVerticesHead
	default:
		return usage(fmt.Sprintf("unknown head %q", *headName))
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "magic-train:", err)
		return 1
	}

	d, err := loadCorpus(*corpus, *samples, *seed, *workers)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "corpus: %d samples, %d families %v\n", d.Len(), d.NumClasses(), d.Families)

	cfg := core.DefaultConfig(d.NumClasses(), acfg.NumAttributes)
	cfg.Epochs = *epochs
	cfg.Seed = *seed
	cfg.PoolingRatio = *ratio
	cfg.Conv = conv
	cfg.ConvHops = *hops
	cfg.Pooling = pooling
	cfg.Head = head

	train, val, err := d.TrainValSplit(*valFrac, *seed)
	if err != nil {
		return fail(err)
	}
	m, err := core.NewModel(cfg, train.Sizes())
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, "model:", m)

	opts := core.TrainOptions{Workers: *workers}
	if !*quiet {
		// Live progress via the trainer's EpochObserver hook: loss and
		// accuracy on both sets, learning rate, wall-clock per epoch, and a
		// star on epochs that improved the model-selection criterion.
		opts.Observer = core.EpochObserverFunc(func(e core.EpochStats) {
			line := fmt.Sprintf("epoch %3d/%d  train %.4f acc %.3f", e.Epoch+1, *epochs, e.TrainLoss, e.TrainAcc)
			if e.HasVal {
				line += fmt.Sprintf("  val %.4f acc %.3f", e.ValLoss, e.ValAcc)
			}
			line += fmt.Sprintf("  lr %.2g  %v", e.LearningRate, e.Duration.Round(time.Millisecond))
			if e.Improved {
				line += "  *"
			}
			fmt.Fprintln(stdout, line)
		})
	}
	hist, err := core.Train(m.Weights, train, val, opts)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "best epoch %d, validation loss %.4f\n", hist.BestEpoch, hist.BestValLoss)

	met, err := eval.Score(&fitted{m}, val, d.Families)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, met.Table())

	if err := m.SaveFile(*out); err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, "model saved to", *out)
	return 0
}

// fitted adapts an already-trained model to eval.Classifier.
type fitted struct{ m *core.Model }

func (f *fitted) Fit(*dataset.Dataset) error          { return nil }
func (f *fitted) Predict(s *dataset.Sample) []float64 { return f.m.Predict(s.ACFG) }

func loadCorpus(corpus string, samples int, seed int64, workers int) (*dataset.Dataset, error) {
	switch strings.ToLower(corpus) {
	case "mskcfg":
		return malgen.MSKCFG(malgen.Options{TotalSamples: samples, Seed: seed, Workers: workers})
	case "yancfg":
		return malgen.YANCFG(malgen.Options{TotalSamples: samples, Seed: seed, Workers: workers})
	default:
		f, err := os.Open(corpus)
		if err != nil {
			return nil, fmt.Errorf("open corpus: %w", err)
		}
		defer func() { _ = f.Close() }()
		return dataset.Read(f)
	}
}
