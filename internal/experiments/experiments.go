// Package experiments reproduces every table and figure of the paper's
// evaluation (Section V) on the synthetic corpora: Figures 7/8 (family
// distributions), Table II (hyperparameter search), Table III / Figure 9
// (MSKCFG per-family scores), Table IV (baseline comparison), Table V /
// Figure 10 (YANCFG per-family scores), Figure 11 (MAGIC vs ESVC) and the
// Section V-E execution-overhead measurements. Both cmd/magic-bench and the
// repository-level benchmarks drive these entry points.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/acfg"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/hyper"
	"repro/internal/malgen"
)

// Options scales the experiments. Zero values select the quick defaults
// suitable for a single CPU core; the paper-scale run raises Samples into
// the thousands and Epochs to 100.
type Options struct {
	Samples int   // corpus size (default 360 MSKCFG / 450 YANCFG)
	Epochs  int   // training epochs (default 20)
	Folds   int   // cross-validation folds (default 5, the paper's k)
	Seed    int64 // global seed (default 1)
	Workers int   // data-parallel workers for generation, training, eval (0/1 = serial)
	Logf    func(format string, args ...any)
}

// corpusOpts derives the synthetic-corpus generation options, carrying the
// worker count into the parallel ACFG extraction stage.
func (o Options) corpusOpts() malgen.Options {
	return malgen.Options{TotalSamples: o.Samples, Seed: o.Seed, Workers: o.Workers}
}

// trainOpts derives the training options; results are bit-identical at any
// worker count (see core.ParallelBatch), so experiments stay reproducible.
func (o Options) trainOpts() core.TrainOptions {
	return core.TrainOptions{Workers: o.Workers}
}

func (o Options) withDefaults(samples int) Options {
	if o.Samples == 0 {
		o.Samples = samples
	}
	if o.Epochs == 0 {
		o.Epochs = 20
	}
	if o.Folds == 0 {
		o.Folds = 5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// mskConfig is the model the Table II sweep selects for the MSKCFG-style
// corpus *at this reproduction's scale*: sort pooling with the paper's
// WeightedVertices extension, ratio 0.64, conv sizes 32-32-32-32, dropout
// 0.1, batch 10, weight decay 1e-4. The paper's full-scale sweep chose
// adaptive pooling instead; on 20-50× smaller corpora our own sweep
// (magic-bench -exp table2) consistently ranks the WeightedVertices head
// first and the adaptive head last, so — following the paper's own
// model-selection methodology (minimum mean validation loss) — the
// headline experiments deploy the sweep winner. See EXPERIMENTS.md.
func mskConfig(o Options, classes int) core.Config {
	cfg := core.DefaultConfig(classes, acfg.NumAttributes)
	cfg.Pooling = core.SortPooling
	cfg.Head = core.WeightedVerticesHead
	cfg.PoolingRatio = 0.64
	cfg.ConvSizes = []int{32, 32, 32, 32}
	cfg.Conv2DChannels = 16
	cfg.DropoutRate = 0.1
	cfg.BatchSize = 10
	cfg.WeightDecay = 1e-4
	cfg.Epochs = o.Epochs
	cfg.Seed = o.Seed
	return cfg
}

// yanConfig is the sweep-selected model for the YANCFG-style corpus at this
// reproduction's scale (see mskConfig for the rationale): sort pooling +
// WeightedVertices, the paper's YANCFG ratio 0.2 and weight decay 5e-4,
// with dropout 0.2 instead of the paper's 0.5 — at 20-50× smaller corpus
// size the stronger dropout underfits the rare classes badly.
func yanConfig(o Options, classes int) core.Config {
	cfg := core.DefaultConfig(classes, acfg.NumAttributes)
	cfg.Pooling = core.SortPooling
	cfg.Head = core.WeightedVerticesHead
	cfg.PoolingRatio = 0.2
	cfg.ConvSizes = []int{32, 32, 32, 32}
	cfg.Conv2DChannels = 16
	cfg.DropoutRate = 0.2
	cfg.BatchSize = 10
	cfg.WeightDecay = 5e-4
	cfg.Epochs = o.Epochs
	cfg.Seed = o.Seed
	return cfg
}

// Distribution is one family's population (Figures 7 and 8).
type Distribution struct {
	Family string
	Count  int
}

// Figure7 generates the MSKCFG-style corpus and reports its family
// distribution.
func Figure7(o Options) ([]Distribution, error) {
	o = o.withDefaults(360)
	d, err := malgen.MSKCFG(o.corpusOpts())
	if err != nil {
		return nil, err
	}
	return distributionOf(d), nil
}

// Figure8 generates the YANCFG-style corpus and reports its class
// distribution.
func Figure8(o Options) ([]Distribution, error) {
	o = o.withDefaults(450)
	d, err := malgen.YANCFG(o.corpusOpts())
	if err != nil {
		return nil, err
	}
	return distributionOf(d), nil
}

func distributionOf(d *dataset.Dataset) []Distribution {
	counts := d.CountByClass()
	out := make([]Distribution, len(counts))
	for i, c := range counts {
		out[i] = Distribution{Family: d.Families[i], Count: c}
	}
	return out
}

// FormatDistribution renders a Figure 7/8-style text bar chart.
func FormatDistribution(title string, dist []Distribution) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	maxCount := 1
	for _, d := range dist {
		if d.Count > maxCount {
			maxCount = d.Count
		}
	}
	for _, d := range dist {
		bar := strings.Repeat("#", d.Count*50/maxCount)
		fmt.Fprintf(&sb, "%-16s %5d %s\n", d.Family, d.Count, bar)
	}
	return sb.String()
}

// Table3 runs the paper's headline MSKCFG experiment: k-fold
// cross-validation of the best MAGIC model, reporting per-family
// precision/recall/F1 (Table III, plotted as Figure 9) plus overall
// accuracy and mean log-loss (MAGIC's row of Table IV).
func Table3(o Options) (*eval.CVResult, error) {
	o = o.withDefaults(360)
	d, err := malgen.MSKCFG(o.corpusOpts())
	if err != nil {
		return nil, err
	}
	cfg := mskConfig(o, d.NumClasses())
	return runMAGIC(o, d, cfg)
}

// Table5 is Table3 for the YANCFG corpus (Table V / Figure 10).
func Table5(o Options) (*eval.CVResult, error) {
	o = o.withDefaults(450)
	d, err := malgen.YANCFG(o.corpusOpts())
	if err != nil {
		return nil, err
	}
	cfg := yanConfig(o, d.NumClasses())
	return runMAGIC(o, d, cfg)
}

func runMAGIC(o Options, d *dataset.Dataset, cfg core.Config) (*eval.CVResult, error) {
	return eval.CrossValidate(d, o.Folds, o.Seed, func(f int) (eval.Classifier, error) {
		o.logf("MAGIC fold %d/%d", f+1, o.Folds)
		c := cfg
		c.Seed = o.Seed + int64(f)
		return &core.Classifier{Cfg: c, Opts: o.trainOpts()}, nil
	})
}

// Table4Row is one comparison row of Table IV.
type Table4Row struct {
	Approach string
	MeanNLL  float64
	Accuracy float64
}

// Table4 cross-validates MAGIC and the five baseline approaches on the
// MSKCFG-style corpus and reports mean logarithmic loss and accuracy, the
// two columns of Table IV.
func Table4(o Options) ([]Table4Row, error) {
	o = o.withDefaults(360)
	d, err := malgen.MSKCFG(o.corpusOpts())
	if err != nil {
		return nil, err
	}
	var rows []Table4Row

	magic, err := runMAGIC(o, d, mskConfig(o, d.NumClasses()))
	if err != nil {
		return nil, fmt.Errorf("experiments: MAGIC: %w", err)
	}
	rows = append(rows, Table4Row{Approach: "MAGIC (DGCNN)", MeanNLL: magic.Mean.MeanNLL, Accuracy: magic.Mean.Accuracy})

	baselines := []struct {
		name    string
		factory func(fold int) (eval.Classifier, error)
	}{
		{"Gradient boosting w/ feature engineering [13]", func(int) (eval.Classifier, error) {
			return baseline.NewGradientBoosting(), nil
		}},
		{"Autoencoder-based gradient boosting [9]", func(f int) (eval.Classifier, error) {
			return baseline.NewAutoencoderGBT(o.Seed + int64(f)), nil
		}},
		{"Strand gene sequence classifier [15]", func(int) (eval.Classifier, error) {
			return baseline.NewStrand(), nil
		}},
		{"Ensemble of random forests [11]", func(f int) (eval.Classifier, error) {
			return baseline.NewRandomForest(o.Seed + int64(f)), nil
		}},
		{"Random forest w/ feature engineering [14]", func(f int) (eval.Classifier, error) {
			rf := baseline.NewRandomForest(o.Seed + 100 + int64(f))
			rf.Trees = 32
			return rf, nil
		}},
	}
	for _, b := range baselines {
		o.logf("baseline: %s", b.name)
		cv, err := eval.CrossValidate(d, o.Folds, o.Seed, b.factory)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", b.name, err)
		}
		rows = append(rows, Table4Row{Approach: b.name, MeanNLL: cv.Mean.MeanNLL, Accuracy: cv.Mean.Accuracy})
	}
	return rows, nil
}

// FormatTable4 renders the comparison table.
func FormatTable4(rows []Table4Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-48s %16s %10s\n", "Approach", "Mean Log Loss", "Accuracy")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-48s %16.4f %9.2f%%\n", r.Approach, r.MeanNLL, 100*r.Accuracy)
	}
	return sb.String()
}

// Fig11Row is one family's F1 comparison between MAGIC and ESVC.
type Fig11Row struct {
	Family     string
	MagicF1    float64
	ESVCF1     float64
	AbsImprove float64
	RelImprove float64
}

// Figure11 cross-validates MAGIC and the ESVC chained-SVM ensemble on the
// YANCFG-style corpus with identical folds and reports the per-family F1
// improvement of MAGIC over ESVC. The MAGIC cross-validation result is
// returned as well (it is exactly the Table V run, so callers need not
// repeat it).
func Figure11(o Options) ([]Fig11Row, *eval.CVResult, error) {
	o = o.withDefaults(450)
	d, err := malgen.YANCFG(o.corpusOpts())
	if err != nil {
		return nil, nil, err
	}
	magic, err := runMAGIC(o, d, yanConfig(o, d.NumClasses()))
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: MAGIC: %w", err)
	}
	o.logf("baseline: ESVC")
	esvc, err := eval.CrossValidate(d, o.Folds, o.Seed, func(f int) (eval.Classifier, error) {
		return baseline.NewESVC(o.Seed + int64(f)), nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: ESVC: %w", err)
	}
	var rows []Fig11Row
	for _, fam := range d.Families {
		m, _ := magic.Mean.ScoreFor(fam)
		e, _ := esvc.Mean.ScoreFor(fam)
		row := Fig11Row{Family: fam, MagicF1: m.F1, ESVCF1: e.F1, AbsImprove: m.F1 - e.F1}
		if e.F1 > 0 {
			row.RelImprove = (m.F1 - e.F1) / e.F1
		}
		rows = append(rows, row)
	}
	return rows, magic, nil
}

// FormatFigure11 renders the improvement chart.
func FormatFigure11(rows []Fig11Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %10s %10s %12s %12s\n", "Family", "MAGIC F1", "ESVC F1", "Abs. Improv", "Rel. Improv")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %10.4f %10.4f %+12.4f %+11.1f%%\n",
			r.Family, r.MagicF1, r.ESVCF1, r.AbsImprove, 100*r.RelImprove)
	}
	return sb.String()
}

// Table2Result summarizes the hyperparameter search.
type Table2Result struct {
	Results []hyper.Result
	Best    hyper.Result
}

// Table2 runs the hyperparameter sweep on the MSKCFG-style corpus. By
// default it sweeps the reduced grid; set full to enumerate all 208+ paper
// settings (slow).
func Table2(o Options, full bool) (*Table2Result, error) {
	o = o.withDefaults(180)
	if o.Epochs > 8 {
		o.Epochs = 8 // sweeps multiply; keep each setting short
	}
	d, err := malgen.MSKCFG(o.corpusOpts())
	if err != nil {
		return nil, err
	}
	base := mskConfig(o, d.NumClasses())
	grid := hyper.SmallGrid()
	if full {
		grid = hyper.PaperGrid()
	}
	configs := grid.Enumerate(base)
	folds := o.Folds
	if folds > 3 {
		folds = 3
	}
	results, err := hyper.Search(d, configs, hyper.SearchOptions{Folds: folds, Seed: o.Seed, Logf: o.Logf})
	if err != nil {
		return nil, err
	}
	return &Table2Result{Results: results, Best: results[0]}, nil
}

// FormatTable2 renders the sweep leaderboard (best first).
func FormatTable2(res *Table2Result, top int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %-24s %6s %-8s %9s %9s\n",
		"Pooling", "ConvSizes", "Ratio", "Head", "ValLoss", "Accuracy")
	rows := res.Results
	if top > 0 && top < len(rows) {
		rows = rows[:top]
	}
	for _, r := range rows {
		head := r.Config.Head.String()
		if r.Config.Pooling == core.AdaptivePooling {
			head = "-"
		}
		fmt.Fprintf(&sb, "%-18s %-24v %6.2f %-8.8s %9.4f %8.2f%%\n",
			r.Config.Pooling, r.Config.ConvSizes, r.Config.PoolingRatio, head,
			r.ValLoss, 100*r.CV.Mean.Accuracy)
	}
	return sb.String()
}

// ConvSweepRow is one (corpus, backend) cell of the graph-convolution
// backend comparison.
type ConvSweepRow struct {
	Corpus   string
	Backend  string
	Accuracy float64
	MeanNLL  float64
	MacroF1  float64
}

// ConvBackendSweep cross-validates every registered graph-convolution
// backend on both synthetic corpora. Each corpus keeps its sweep-selected
// hyperparameters (mskConfig / yanConfig) with only cfg.Conv varied, so the
// comparison isolates the convolution rule itself; within a corpus every
// backend sees identical folds and seeds.
func ConvBackendSweep(o Options) ([]ConvSweepRow, error) {
	o = o.withDefaults(240)
	corpora := []struct {
		name string
		load func(malgen.Options) (*dataset.Dataset, error)
		cfg  func(Options, int) core.Config
	}{
		{"MSKCFG", malgen.MSKCFG, mskConfig},
		{"YANCFG", malgen.YANCFG, yanConfig},
	}
	var rows []ConvSweepRow
	for _, c := range corpora {
		d, err := c.load(o.corpusOpts())
		if err != nil {
			return nil, err
		}
		for _, backend := range core.ConvBackendNames() {
			o.logf("conv sweep: %s × %s", c.name, backend)
			cfg := c.cfg(o, d.NumClasses())
			cfg.Conv = backend
			cv, err := runMAGIC(o, d, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: conv sweep %s/%s: %w", c.name, backend, err)
			}
			rows = append(rows, ConvSweepRow{
				Corpus:   c.name,
				Backend:  backend,
				Accuracy: cv.Mean.Accuracy,
				MeanNLL:  cv.Mean.MeanNLL,
				MacroF1:  cv.Mean.MacroF1(),
			})
		}
	}
	return rows, nil
}

// FormatConvSweep renders the backend comparison table.
func FormatConvSweep(rows []ConvSweepRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-8s %10s %10s %10s\n", "Corpus", "Backend", "Accuracy", "MeanNLL", "MacroF1")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %-8s %9.2f%% %10.4f %10.4f\n", r.Corpus, r.Backend, 100*r.Accuracy, r.MeanNLL, r.MacroF1)
	}
	return sb.String()
}

// Overhead reports the Section V-E execution measurements: mean ACFG
// construction time, training time per instance and prediction time per
// instance.
type Overhead struct {
	ACFGBuild        time.Duration // per instance
	TrainPerInstance time.Duration
	PredPerInstance  time.Duration
}

// MeasureOverhead times the three pipeline stages on a fresh corpus.
func MeasureOverhead(o Options) (*Overhead, error) {
	o = o.withDefaults(120)
	// ACFG construction: time generation+parsing+building of MSK samples.
	start := time.Now()
	d, err := malgen.MSKCFG(o.corpusOpts())
	if err != nil {
		return nil, err
	}
	buildPer := time.Since(start) / time.Duration(d.Len())

	train, test, err := d.TrainValSplit(0.2, o.Seed)
	if err != nil {
		return nil, err
	}
	cfg := mskConfig(o, d.NumClasses())
	cfg.Epochs = 3
	m, err := core.NewModel(cfg, train.Sizes())
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if _, err := core.Train(m.Weights, train, nil, o.trainOpts()); err != nil {
		return nil, err
	}
	trainPer := time.Since(start) / time.Duration(train.Len()*cfg.Epochs)

	start = time.Now()
	for _, s := range test.Samples {
		m.Predict(s.ACFG)
	}
	predPer := time.Since(start) / time.Duration(test.Len())
	return &Overhead{ACFGBuild: buildPer, TrainPerInstance: trainPer, PredPerInstance: predPer}, nil
}

// AblationRow reports one model variant's CV scores.
type AblationRow struct {
	Name     string
	Accuracy float64
	MeanNLL  float64
	MacroF1  float64
}

// AblateHeads compares the three architecture variants (the paper's two
// extensions plus the original DGCNN head) under identical data and folds —
// the design-choice ablation DESIGN.md calls out.
func AblateHeads(o Options) ([]AblationRow, error) {
	o = o.withDefaults(240)
	d, err := malgen.MSKCFG(o.corpusOpts())
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"AdaptiveMaxPooling + Conv2D (extension 2)", func(c *core.Config) {
			c.Pooling = core.AdaptivePooling
		}},
		{"SortPooling + WeightedVertices (extension 1)", func(c *core.Config) {
			c.Pooling = core.SortPooling
			c.Head = core.WeightedVerticesHead
		}},
		{"SortPooling + Conv1D (original DGCNN)", func(c *core.Config) {
			c.Pooling = core.SortPooling
			c.Head = core.Conv1DHead
		}},
	}
	var rows []AblationRow
	for _, v := range variants {
		o.logf("ablation: %s", v.name)
		cfg := mskConfig(o, d.NumClasses())
		v.mutate(&cfg)
		cv, err := runMAGIC(o, d, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %s: %w", v.name, err)
		}
		rows = append(rows, AblationRow{
			Name:     v.name,
			Accuracy: cv.Mean.Accuracy,
			MeanNLL:  cv.Mean.MeanNLL,
			MacroF1:  cv.Mean.MacroF1(),
		})
	}
	return rows, nil
}

// AblateAttributes compares attribute subsets: full Table I, code-sequence
// counters only, and vertex-structure counters only.
func AblateAttributes(o Options) ([]AblationRow, error) {
	o = o.withDefaults(240)
	d, err := malgen.MSKCFG(o.corpusOpts())
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		keep []int
	}{
		{"full Table I (11 attrs)", nil},
		{"code-sequence attrs only", []int{
			acfg.AttrNumericConstants, acfg.AttrTransfer, acfg.AttrCall,
			acfg.AttrArithmetic, acfg.AttrCompare, acfg.AttrMov,
			acfg.AttrTermination, acfg.AttrDataDeclaration, acfg.AttrTotalInstructions,
		}},
		{"vertex-structure attrs only", []int{acfg.AttrOffspring, acfg.AttrInstructionsInVertex}},
	}
	var rows []AblationRow
	for _, v := range variants {
		o.logf("ablation: %s", v.name)
		ds := d
		if v.keep != nil {
			ds = maskAttributes(d, v.keep)
		}
		cv, err := runMAGIC(o, ds, mskConfig(o, ds.NumClasses()))
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %s: %w", v.name, err)
		}
		rows = append(rows, AblationRow{
			Name:     v.name,
			Accuracy: cv.Mean.Accuracy,
			MeanNLL:  cv.Mean.MeanNLL,
			MacroF1:  cv.Mean.MacroF1(),
		})
	}
	return rows, nil
}

// maskAttributes zeroes every attribute column not in keep (the width stays
// 11 so the same architecture applies).
func maskAttributes(d *dataset.Dataset, keep []int) *dataset.Dataset {
	keepSet := make(map[int]bool, len(keep))
	for _, k := range keep {
		keepSet[k] = true
	}
	out := dataset.New(d.Families)
	for _, s := range d.Samples {
		attrs := s.ACFG.Attrs.Clone()
		for i := 0; i < attrs.Rows; i++ {
			row := attrs.Row(i)
			for c := range row {
				if !keepSet[c] {
					row[c] = 0
				}
			}
		}
		masked, err := acfg.New(s.ACFG.Graph, attrs)
		if err != nil {
			panic(err) // same dims by construction
		}
		out.Add(&dataset.Sample{Name: s.Name, Label: s.Label, ACFG: masked})
	}
	return out
}

// FormatAblation renders ablation rows.
func FormatAblation(rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-46s %10s %10s %10s\n", "Variant", "Accuracy", "MeanNLL", "MacroF1")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-46s %9.2f%% %10.4f %10.4f\n", r.Name, 100*r.Accuracy, r.MeanNLL, r.MacroF1)
	}
	return sb.String()
}
