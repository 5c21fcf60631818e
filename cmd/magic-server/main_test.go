package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/malgen"
	"repro/internal/obs"
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

// TestSeedDemoIsAJob: the demo seed trains through the job system, so once
// it returns — before any shutdown — the model is checkpointed, the job is
// in the history, and the continual watermark covers the seeded corpus.
func TestSeedDemoIsAJob(t *testing.T) {
	dir := t.TempDir()
	families := malgen.MSKCFGFamilies()
	cfg := core.DefaultConfig(len(families), acfg.NumAttributes)
	cfg.Epochs = 1
	srv, err := service.NewWithRegistry(families, cfg, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	st, err := service.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := seedDemo(srv, 30, 1); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := service.NewClient(ts.URL)
	ctx := context.Background()

	ckpt, err := core.LoadFile(filepath.Join(dir, "model.json"))
	if err != nil {
		t.Fatalf("no model checkpoint after the seed: %v", err)
	}
	models, err := client.ListModels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var serving string
	for _, v := range models.Versions {
		if v.Active {
			serving = v.Fingerprint
		}
	}
	if got := ckpt.Fingerprint(); got != serving {
		t.Fatalf("model.json fingerprint %s, serving model %s", got, serving)
	}

	job, err := client.TrainStatus(ctx, "train-000001")
	if err != nil {
		t.Fatalf("the seed left no job in the history: %v", err)
	}
	if job.Status != service.JobSucceeded || job.Mode != service.TrainModeFull {
		t.Fatalf("seed job is %s %s, want a succeeded full job", job.Status, job.Mode)
	}
	if _, err := client.TrainStatus(ctx, "train-000002"); err == nil {
		t.Fatal("the seed left a second job in the history")
	}

	_, err = client.StartContinual(ctx, 1, 0)
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusPreconditionFailed ||
		!strings.Contains(apiErr.Message, "no new samples") {
		t.Fatalf("continual job right after the seed: %v, want 412 no new samples", err)
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
