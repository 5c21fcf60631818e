package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestRunArgumentErrors covers the argument errors run returns before it
// opens a listener, a state directory or a goroutine.
func TestRunArgumentErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no corpus source", nil, "need -families or -demo"},
		{"unknown backend", []string{"-demo", "-conv", "nope"}, "core: unknown conv backend"},
		// The float32 serving tier is gone; its flag must fail loudly, not
		// be accepted and ignored.
		{"removed flag", []string{"-demo", "-float32"}, "flag provided but not defined"},
		{"one family", []string{"-families", "a"}, "core: need at least 2 classes, got 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestRunRefusesLegacyWAL: a state dir holding the JSONL corpus.wal of an
// earlier version stops the server before it serves, with an error naming
// the file — an ordinary startup failure, which main exits 1 on, not the
// lock contention it exits 2 on — and the directory is left untouched.
func TestRunRefusesLegacyWAL(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "corpus.wal")
	if err := os.WriteFile(wal, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-families", "a,b", "-state-dir", dir, "-addr", "127.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), wal) {
		t.Fatalf("run = %v, want an error naming %s", err, wal)
	}
	if errors.Is(err, service.ErrStateDirLocked) {
		t.Fatalf("run = %v, which main would exit 2 on", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("state dir holds %d entries after the refusal, want only corpus.wal", len(entries))
	}
}
