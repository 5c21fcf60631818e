package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestRunExitStatus: -h exits 0; a flag error or an unknown -pooling,
// -head or -conv is a usage error (2) that trains nothing; a corpus that
// cannot be loaded exits 1; a run that trains and saves exits 0.
func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"help", []string{"-h"}, 0, "-corpus"},
		{"unknown flag", []string{"-nope"}, 2, "flag provided but not defined"},
		{"unknown pooling", []string{"-pooling", "mean"}, 2, `unknown pooling "mean"`},
		{"unknown head", []string{"-head", "mlp"}, 2, `unknown head "mlp"`},
		{"unknown conv", []string{"-conv", "gin"}, 2, `unknown conv "gin"`},
		{"missing corpus", []string{"-corpus", filepath.Join(dir, "nope.jsonl")}, 1, "magic-train: open corpus:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.stderr)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout %q, want empty", stdout.String())
			}
		})
	}
}

// TestRunTrainsAndSaves: the smallest run trains, reports each epoch and
// saves a model that loads back.
func TestRunTrainsAndSaves(t *testing.T) {
	out := filepath.Join(t.TempDir(), "m.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-samples", "20", "-epochs", "1", "-workers", "2", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	for _, want := range []string{"corpus: 20 samples", "epoch   1/1", "model saved to " + out} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
	if _, err := core.LoadFile(out); err != nil {
		t.Fatalf("saved model does not load: %v", err)
	}
}
