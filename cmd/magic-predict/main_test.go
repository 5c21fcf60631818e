package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/malgen"
)

// fixtures writes a freshly built (untrained) default model and one
// generated listing into a temp dir and returns their paths.
func fixtures(t *testing.T) (model, listing string) {
	t.Helper()
	dir := t.TempDir()
	m, err := core.NewModel(core.DefaultConfig(3, acfg.NumAttributes), nil)
	if err != nil {
		t.Fatal(err)
	}
	model = filepath.Join(dir, "model.json")
	if err := m.SaveFile(model); err != nil {
		t.Fatal(err)
	}
	listing = filepath.Join(dir, "sample.asm")
	text := malgen.GenerateProgram(rand.New(rand.NewSource(1)), malgen.MSKProfileFor(0))
	if err := os.WriteFile(listing, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return model, listing
}

// TestRunExitStatus: usage errors exit 2, any input that fails to load or
// classify — or a model that fails to load — exits 1 and says how many
// failed, and only a run that classified every input exits 0.
func TestRunExitStatus(t *testing.T) {
	model, listing := fixtures(t)
	missing := filepath.Join(t.TempDir(), "nope.asm")
	rejecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"bad sample"}`, http.StatusBadRequest)
	}))
	defer rejecting.Close()

	for _, tc := range []struct {
		name      string
		args      []string
		code      int
		stdout    string // substring, "" = must be empty
		stderr    string // substring
		wantRanks int    // ranked lines on stdout
	}{
		{"no inputs", []string{"-model", model}, 2, "", "no input files", 0},
		{"top 0", []string{"-model", model, "-top", "0", listing}, 2, "", "-top 0: need at least 1", 0},
		{"top negative", []string{"-model", model, "-top", "-1", listing}, 2, "", "-top -1: need at least 1", 0},
		{"unknown flag", []string{"-nope", listing}, 2, "", "flag provided but not defined", 0},
		{"missing model", []string{"-model", missing + ".json", listing}, 1, "", "no such file", 0},
		{"every input missing", []string{"-model", model, missing}, 1, "", "1 of 1 inputs failed", 0},
		{"one of two missing", []string{"-model", model, missing, listing}, 1, "sample.asm (", "1 of 2 inputs failed", 3},
		{"local listing", []string{"-model", model, "-top", "2", "-families", "a,b,c", listing}, 0, "sample.asm (", "", 2},
		{"top above classes", []string{"-model", model, "-top", "9", listing}, 0, "3. class", "", 3},
		{"server rejects every input", []string{"-server", rejecting.URL, listing, listing}, 1, "", "2 of 2 inputs failed", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, stdout.String(), stderr.String())
			}
			if tc.stdout == "" && stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing", stdout.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout = %q, want it to contain %q", stdout.String(), tc.stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr = %q, want it to contain %q", stderr.String(), tc.stderr)
			}
			if tc.code == 0 && stderr.Len() != 0 {
				t.Errorf("stderr = %q on success, want nothing", stderr.String())
			}
			if ranks := strings.Count(stdout.String(), "%\n"); ranks != tc.wantRanks {
				t.Errorf("%d ranked lines, want %d:\n%s", ranks, tc.wantRanks, stdout.String())
			}
		})
	}
}
