// Command magic-predict classifies malware samples — the prediction mode
// of Section IV-C — either with a local model file or against a running
// magic-server. Inputs are either ACFG JSON files produced by acfg-gen or
// raw .asm disassembly listings (which are pushed through the CFG
// pipeline first).
//
// Usage:
//
//	magic-predict -model magic-model.json [-families a,b,c] sample.acfg.json malware.asm ...
//	magic-predict -server http://localhost:8080 sample.acfg.json malware.asm ...
//
// Server mode posts each sample to POST /v1/predict through the service
// client (context-bounded, with retry-with-backoff on connection errors),
// so predictions come from whatever model the service currently serves.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run classifies every input and returns the exit status: 0 when every
// input was classified, 1 when any failed to load or classify (each is
// named on stderr and skipped) or the model cannot be loaded, 2 for a
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("magic-predict", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modelPath := fs.String("model", "magic-model.json", "trained model path")
	serverURL := fs.String("server", "", "classify against a running magic-server at this base URL instead of a local model")
	families := fs.String("families", "", "comma-separated family names (defaults to class indices)")
	topK := fs.Int("top", 3, "number of top families to print per sample (at least 1)")
	timeout := fs.Duration("timeout", time.Minute, "per-sample request timeout in server mode")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "magic-predict:", msg)
		fs.Usage()
		return 2
	}
	if *topK < 1 {
		return usage(fmt.Sprintf("-top %d: need at least 1", *topK))
	}
	files := fs.Args()
	if len(files) == 0 {
		return usage("no input files (usage: magic-predict -model m.json sample.acfg.json ...)")
	}

	var failed int
	if *serverURL != "" {
		failed = runServerMode(stdout, stderr, *serverURL, files, *topK, *timeout)
	} else {
		m, err := core.LoadFile(*modelPath)
		if err != nil {
			fmt.Fprintln(stderr, "magic-predict:", err)
			return 1
		}
		var names []string
		if *families != "" {
			names = strings.Split(*families, ",")
		}
		failed = runLocalMode(stdout, stderr, m, names, files, *topK)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "magic-predict: %d of %d inputs failed\n", failed, len(files))
		return 1
	}
	return 0
}

// runLocalMode classifies every file with a loaded model and returns how
// many failed.
func runLocalMode(stdout, stderr io.Writer, m *core.Model, names []string, files []string, topK int) (failed int) {
	for _, file := range files {
		a, err := loadSample(file)
		if err != nil {
			fmt.Fprintf(stderr, "magic-predict: %s: %v\n", file, err)
			failed++
			continue
		}
		probs := m.Predict(a)
		fmt.Fprintf(stdout, "%s (%d blocks):\n", file, a.NumVertices())
		for rank, c := range topClasses(probs, topK) {
			name := fmt.Sprintf("class %d", c)
			if c < len(names) {
				name = names[c]
			}
			fmt.Fprintf(stdout, "  %d. %-20s %6.2f%%\n", rank+1, name, 100*probs[c])
		}
	}
	return failed
}

// runServerMode classifies every file through a running magic-server's
// /v1/predict endpoint and returns how many failed. ASM listings travel as
// text so the server runs the extraction pipeline; ACFG files are posted
// pre-built.
func runServerMode(stdout, stderr io.Writer, baseURL string, files []string, topK int, timeout time.Duration) (failed int) {
	client := service.NewClient(baseURL)
	for _, file := range files {
		res, err := predictRemote(client, file, timeout)
		if err != nil {
			fmt.Fprintf(stderr, "magic-predict: %s: %v\n", file, err)
			failed++
			continue
		}
		fmt.Fprintf(stdout, "%s (%d blocks):\n", file, res.Blocks)
		for rank, p := range res.Predictions {
			if rank >= topK {
				break
			}
			fmt.Fprintf(stdout, "  %d. %-20s %6.2f%%\n", rank+1, p.Family, 100*p.Probability)
		}
	}
	return failed
}

func predictRemote(client *service.Client, path string, timeout time.Duration) (*service.PredictResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if strings.HasSuffix(path, ".asm") {
		text, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return client.PredictASMContext(ctx, string(text))
	}
	a, err := loadSample(path)
	if err != nil {
		return nil, err
	}
	return client.PredictACFGContext(ctx, a)
}

func loadSample(path string) (*acfg.ACFG, error) {
	if strings.HasSuffix(path, ".asm") {
		text, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return acfg.FromASM(string(text))
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	return acfg.Read(f)
}

// topClasses returns the indices of the k largest probabilities in order.
func topClasses(probs []float64, k int) []int {
	idx := make([]int, len(probs))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < len(idx) && i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if probs[idx[j]] > probs[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
