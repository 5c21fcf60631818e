// Command malgen-gen materializes the synthetic corpora to disk: a dataset
// JSON-lines file consumable by magic-train, and optionally the raw .asm
// disassembly listings (MSKCFG mode only) so the acfg-gen ↦ magic-predict
// toolchain can be exercised on individual files.
//
// Usage:
//
//	malgen-gen -corpus mskcfg -samples 360 -out corpus.jsonl -asmdir ./asm
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/dataset"
	"repro/internal/malgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "malgen-gen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("malgen-gen", flag.ContinueOnError)
	corpus := fs.String("corpus", "mskcfg", "corpus type: mskcfg or yancfg")
	samples := fs.Int("samples", 360, "corpus size")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 4, "generation workers")
	out := fs.String("out", "corpus.jsonl", "output dataset path")
	asmDir := fs.String("asmdir", "", "also write per-sample .asm listings here (mskcfg only)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		d     *dataset.Dataset
		texts []string
		err   error
	)
	opts := malgen.Options{TotalSamples: *samples, Seed: *seed, Workers: *workers}
	switch strings.ToLower(*corpus) {
	case "mskcfg":
		d, texts, err = malgen.MSKCFGTexts(opts)
	case "yancfg":
		if *asmDir != "" {
			return fmt.Errorf("-asmdir requires -corpus mskcfg (YANCFG samples are pre-built CFGs)")
		}
		d, err = malgen.YANCFG(opts)
	default:
		return fmt.Errorf("unknown corpus %q", *corpus)
	}
	if err != nil {
		return err
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	if err := d.Write(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d samples (%d families) to %s\n", d.Len(), d.NumClasses(), *out)

	if *asmDir != "" {
		if err := writeASM(*asmDir, d, texts); err != nil {
			return err
		}
		fmt.Printf("wrote .asm listings to %s\n", *asmDir)
	}
	return nil
}

// writeASM writes each sample's listing, texts[i] for d.Samples[i], to
// <dir>/<sample name>.asm.
func writeASM(dir string, d *dataset.Dataset, texts []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, s := range d.Samples {
		if err := os.WriteFile(filepath.Join(dir, s.Name+".asm"), []byte(texts[i]), 0o644); err != nil {
			return err
		}
	}
	return nil
}
