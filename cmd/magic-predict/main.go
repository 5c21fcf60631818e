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
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "magic-predict:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("magic-predict", flag.ContinueOnError)
	modelPath := fs.String("model", "magic-model.json", "trained model path")
	serverURL := fs.String("server", "", "classify against a running magic-server at this base URL instead of a local model")
	families := fs.String("families", "", "comma-separated family names (defaults to class indices)")
	topK := fs.Int("top", 3, "number of top families to print per sample")
	timeout := fs.Duration("timeout", time.Minute, "per-sample request timeout in server mode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("no input files (usage: magic-predict -model m.json sample.acfg.json ...)")
	}
	if *serverURL != "" {
		return runServerMode(*serverURL, files, *topK, *timeout)
	}

	m, err := core.LoadFile(*modelPath)
	if err != nil {
		return err
	}
	var names []string
	if *families != "" {
		names = strings.Split(*families, ",")
	}

	for _, file := range files {
		a, err := loadSample(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "magic-predict: %s: %v\n", file, err)
			continue
		}
		probs := m.Predict(a)
		fmt.Printf("%s (%d blocks):\n", file, a.NumVertices())
		for rank, c := range topClasses(probs, *topK) {
			name := fmt.Sprintf("class %d", c)
			if c < len(names) {
				name = names[c]
			}
			fmt.Printf("  %d. %-20s %6.2f%%\n", rank+1, name, 100*probs[c])
		}
	}
	return nil
}

// runServerMode classifies every file through a running magic-server's
// /v1/predict endpoint. ASM listings travel as text so the server runs
// the extraction pipeline; ACFG files are posted pre-built.
func runServerMode(baseURL string, files []string, topK int, timeout time.Duration) error {
	client := service.NewClient(baseURL)
	for _, file := range files {
		res, err := predictRemote(client, file, timeout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "magic-predict: %s: %v\n", file, err)
			continue
		}
		fmt.Printf("%s (%d blocks):\n", file, res.Blocks)
		for rank, p := range res.Predictions {
			if rank >= topK {
				break
			}
			fmt.Printf("  %d. %-20s %6.2f%%\n", rank+1, p.Family, 100*p.Probability)
		}
	}
	return nil
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
