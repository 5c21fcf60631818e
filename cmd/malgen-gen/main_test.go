package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/acfg"
	"repro/internal/dataset"
)

// TestASMDirMatchesDataset: every listing -asmdir writes is the one its
// same-named sample in the dataset file was extracted from.
func TestASMDirMatchesDataset(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "corpus.jsonl")
	asmDir := filepath.Join(dir, "asm")
	if err := run([]string{"-samples", "20", "-workers", "2", "-out", out, "-asmdir", asmDir}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := dataset.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(asmDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != d.Len() {
		t.Fatalf("%d listings for %d samples", len(entries), d.Len())
	}
	for _, s := range d.Samples {
		text, err := os.ReadFile(filepath.Join(asmDir, s.Name+".asm"))
		if err != nil {
			t.Fatal(err)
		}
		a, err := acfg.FromASM(string(text))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if a.ContentHash() != s.ACFG.ContentHash() {
			t.Errorf("%s.asm does not extract to the dataset's %s", s.Name, s.Name)
		}
	}
}

// TestASMDirNeedsMSKCFG: YANCFG samples have no listings to write.
func TestASMDirNeedsMSKCFG(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-corpus", "yancfg", "-samples", "30", "-out", filepath.Join(dir, "c.jsonl"), "-asmdir", filepath.Join(dir, "x")})
	if err == nil || !strings.Contains(err.Error(), "-asmdir requires -corpus mskcfg") {
		t.Fatalf("run = %v, want the -asmdir/-corpus error", err)
	}
}
