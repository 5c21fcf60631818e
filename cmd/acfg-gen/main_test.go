package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/acfg"
	"repro/internal/malgen"
)

// TestRunExitStatus: usage errors exit 2 and write nothing, -h exits 0, an
// input that fails to extract exits 1 and is named, and a run that extracts
// every input exits 0 with one ACFG file per input.
func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	listing := filepath.Join(dir, "sample.asm")
	text := malgen.GenerateProgram(rand.New(rand.NewSource(1)), malgen.MSKProfileFor(0))
	if err := os.WriteFile(listing, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "nope.asm")
	out := filepath.Join(dir, "out")

	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string // substring, "" = must be empty
		stderr string // substring
	}{
		{"help", []string{"-h"}, 0, "", "-workers"},
		{"unknown flag", []string{"-nope", listing}, 2, "", "flag provided but not defined"},
		{"no inputs", []string{"-out", out}, 2, "", "no input files"},
		{"no workers", []string{"-workers", "0", listing}, 2, "", "-workers 0: need at least 1"},
		{"missing input", []string{"-out", out, listing, missing}, 1, "sample.asm: ok", "1 of 2 files failed"},
		{"all extracted", []string{"-out", out, listing}, 0, "sample.asm: ok", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if tc.stdout == "" && stdout.Len() != 0 {
				t.Errorf("stdout %q, want empty", stdout.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout %q lacks %q", stdout.String(), tc.stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.stderr)
			}
		})
	}

	f, err := os.Open(filepath.Join(out, "sample.acfg.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := acfg.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := acfg.FromASM(text)
	if err != nil {
		t.Fatal(err)
	}
	if a.ContentHash() != want.ContentHash() {
		t.Error("sample.acfg.json is not the listing's ACFG")
	}
}
