// Command acfg-gen extracts attributed control flow graphs from
// disassembly listings — the first half of the MAGIC pipeline (Figure 1).
// It reads one or more .asm files (the format of Section IV-A: one
// "ADDR MNEMONIC [operands]" instruction per line), builds the CFG with the
// two-pass algorithm, extracts the Table I attributes and writes one ACFG
// JSON file per input. Like the paper's implementation, inputs are
// processed concurrently.
//
// Usage:
//
//	acfg-gen [-out dir] [-workers n] file.asm [file2.asm ...]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/acfg"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "acfg-gen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("acfg-gen", flag.ContinueOnError)
	outDir := fs.String("out", ".", "output directory for .acfg.json files")
	workers := fs.Int("workers", 4, "concurrent extraction workers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("no input files (usage: acfg-gen [-out dir] file.asm ...)")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}

	type result struct {
		file string
		err  error
	}
	jobs := make(chan string)
	results := make(chan result)
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for file := range jobs {
				results <- result{file: file, err: extract(file, *outDir)}
			}
		}()
	}
	go func() {
		for _, f := range files {
			jobs <- f
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	failed := 0
	for r := range results {
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "acfg-gen: %s: %v\n", r.file, r.err)
		} else {
			fmt.Printf("%s: ok\n", r.file)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d files failed", failed, len(files))
	}
	return nil
}

func extract(path, outDir string) error {
	text, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	a, err := acfg.FromASM(string(text))
	if err != nil {
		return err
	}

	base := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	outPath := filepath.Join(outDir, base+".acfg.json")
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer func() { _ = out.Close() }()
	if err := a.Write(out); err != nil {
		return err
	}
	return out.Close()
}
