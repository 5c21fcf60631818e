package service

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// bootStatefulServer builds a server over dir's state and serves it, the
// way cmd/magic-server wires things up.
func bootStatefulServer(t *testing.T, dir string) (*Server, *Client, int, bool) {
	t.Helper()
	srv, err := NewWithRegistry([]string{"clean", "dirty"}, testConfig(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	replayed, loaded, err := srv.AttachStore(st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { crash(srv) })
	return srv, NewClient(ts.URL), replayed, loaded
}

// crash simulates kill -9 for a stateful server: the OS releases file
// handles and the state-dir flock, but nothing graceful happens — no
// model checkpoint, no WAL cleanup. Idempotent, and a no-op after Close.
func crash(srv *Server) {
	srv.mu.Lock()
	st := srv.store
	srv.store = nil
	srv.mu.Unlock()
	if st == nil {
		return
	}
	if st.stopCh != nil {
		close(st.stopCh)
		st.wg.Wait()
		st.stopCh = nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.wal != nil {
		_ = st.wal.Close()
		st.wal = nil
	}
	if st.lock != nil {
		_ = st.lock.Close()
		st.lock = nil
	}
}

// TestRestartRoundTrip is the acceptance test for the persistence
// tentpole: uploads and a trained model written under one server instance
// must come back in a completely fresh service.New + AttachStore, with the
// corpus visible in /v1/stats and the checkpointed model serving
// predictions.
func TestRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()

	srv1, client1, replayed, loaded := bootStatefulServer(t, dir)
	if replayed != 0 || loaded {
		t.Fatalf("fresh state dir replayed %d samples, model %v", replayed, loaded)
	}
	for i := 0; i < 3; i++ {
		if err := client1.AddSampleASM("clean", "c"+itoa(i), variant(chainProgram, i)); err != nil {
			t.Fatal(err)
		}
		if err := client1.AddSampleASM("dirty", "d"+itoa(i), variant(loopProgram, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client1.Train(3, 0); err != nil {
		t.Fatal(err)
	}
	want, err := client1.PredictASM(loopProgram)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: no srv1.Close(), no final checkpoint — only what
	// the WAL appends and the training-success checkpoint already made
	// durable.
	crash(srv1)

	srv2, client2, replayed, loaded := bootStatefulServer(t, dir)
	if replayed != 6 {
		t.Fatalf("replayed %d samples, want 6", replayed)
	}
	if !loaded {
		t.Fatal("model checkpoint not loaded on restart")
	}
	stats, err := client2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["clean"] != 3 || stats["dirty"] != 3 {
		t.Fatalf("replayed stats = %v, want 3 per family", stats)
	}
	got, err := client2.PredictASM(loopProgram)
	if err != nil {
		t.Fatalf("predict from checkpointed model: %v", err)
	}
	if want.Predictions[0].Family != got.Predictions[0].Family {
		t.Fatalf("checkpointed model predicts %q, original predicted %q",
			got.Predictions[0].Family, want.Predictions[0].Family)
	}

	// New uploads append after the replayed ones; a third boot sees all.
	if err := client2.AddSampleASM("clean", "late", variant(chainProgram, 10)); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, replayed, loaded = bootStatefulServer(t, dir)
	if replayed != 7 || !loaded {
		t.Fatalf("third boot replayed %d samples (model %v), want 7 (true)", replayed, loaded)
	}
}

// TestWALTornTailTruncated simulates a crash mid-append: a half-written
// final line must be tolerated and truncated so the WAL is clean for
// subsequent appends, while every intact record replays.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()

	srv1, client, _, _ := bootStatefulServer(t, dir)
	if err := client.AddSampleASM("clean", "a", chainProgram); err != nil {
		t.Fatal(err)
	}
	if err := client.AddSampleASM("dirty", "b", loopProgram); err != nil {
		t.Fatal(err)
	}
	crash(srv1)

	walPath := filepath.Join(dir, walFilename)
	intact, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, intact...), []byte(`{"family":"clean","name":"torn","acfg"`)...)
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, client2, replayed, _ := bootStatefulServer(t, dir)
	if replayed != 2 {
		t.Fatalf("replayed %d samples from torn WAL, want 2", replayed)
	}
	after, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(intact) {
		t.Fatalf("torn tail not truncated: WAL is %d bytes, want %d", len(after), len(intact))
	}
	// The truncated WAL accepts appends at a clean boundary: a third boot
	// replays old + new records.
	if err := client2.AddSampleASM("clean", "c", variant(chainProgram, 5)); err != nil {
		t.Fatal(err)
	}
	crash(srv2)
	_, _, replayed, _ = bootStatefulServer(t, dir)
	if replayed != 3 {
		t.Fatalf("replayed %d samples after post-truncation append, want 3", replayed)
	}
}

// TestWALMidFileCorruptionFatal: corruption before the tail is data loss
// and must fail loudly, not silently skip records.
func TestWALMidFileCorruptionFatal(t *testing.T) {
	dir := t.TempDir()

	srv1, client, _, _ := bootStatefulServer(t, dir)
	if err := client.AddSampleASM("clean", "a", chainProgram); err != nil {
		t.Fatal(err)
	}
	if err := client.AddSampleASM("dirty", "b", loopProgram); err != nil {
		t.Fatal(err)
	}
	crash(srv1)

	walPath := filepath.Join(dir, walFilename)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	corrupted := "GARBAGE-NOT-JSON\n" + lines[1]
	if err := os.WriteFile(walPath, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := NewWithRegistry([]string{"clean", "dirty"}, testConfig(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	if _, _, err := srv.AttachStore(st); err == nil {
		t.Fatal("mid-file WAL corruption replayed without error")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("error %q does not mention corruption", err)
	}
}

// TestWALRejectsUnknownFamily: a WAL recorded under a different family
// universe must not replay silently into wrong labels.
func TestWALRejectsUnknownFamily(t *testing.T) {
	dir := t.TempDir()

	srv1, client, _, _ := bootStatefulServer(t, dir)
	if err := client.AddSampleASM("clean", "a", chainProgram); err != nil {
		t.Fatal(err)
	}
	crash(srv1)

	srv, err := NewWithRegistry([]string{"alpha", "beta"}, testConfig(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	if _, _, err := srv.AttachStore(st); err == nil {
		t.Fatal("WAL with out-of-universe family replayed without error")
	}
}

// TestCheckpointOnGracefulClose: Close must write a final model checkpoint
// even when training succeeded only in-memory (e.g. model installed via
// LoadModel rather than a job).
func TestCheckpointOnGracefulClose(t *testing.T) {
	dir := t.TempDir()

	srv, client, _, _ := bootStatefulServer(t, dir)
	for i := 0; i < 2; i++ {
		if err := client.AddSampleASM("clean", "", variant(chainProgram, i)); err != nil {
			t.Fatal(err)
		}
		if err := client.AddSampleASM("dirty", "", variant(loopProgram, i)); err != nil {
			t.Fatal(err)
		}
	}
	// A long job is running when Close arrives: Close must cancel it,
	// wait, and still write a checkpoint of whatever model is serving.
	if _, err := client.Train(2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := client.StartTrain(context.Background(), 1_000_000, 0); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if srv.TrainingActive() {
		t.Fatal("training still active after Close")
	}
	fi, err := os.Stat(filepath.Join(dir, modelFilename))
	if err != nil {
		t.Fatalf("model checkpoint after Close: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatal("model checkpoint is empty")
	}
}

// TestCorpusGaugeTracksCountByClass holds the per-family corpus gauge —
// incremented per accepted upload, set absolutely on replay — to the
// corpus's own count through uploads, deduplicated re-uploads and a restart.
func TestCorpusGaugeTracksCountByClass(t *testing.T) {
	dir := t.TempDir()
	check := func(srv *Server, when string, want []int) {
		t.Helper()
		srv.mu.Lock()
		counts := srv.corpus.CountByClass()
		srv.mu.Unlock()
		for i, f := range srv.families {
			if counts[i] != want[i] {
				t.Fatalf("%s: corpus holds %d %q samples, want %d", when, counts[i], f, want[i])
			}
			if got := srv.corpusSize.With(f).Value(); got != float64(counts[i]) {
				t.Errorf("%s: magic_corpus_samples{family=%q} = %v, CountByClass = %d", when, f, got, counts[i])
			}
		}
	}

	srv1, client1, _, _ := bootStatefulServer(t, dir)
	for i := 0; i < 3; i++ {
		if err := client1.AddSampleASM("clean", "c"+itoa(i), variant(chainProgram, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := client1.AddSampleASM("dirty", "d"+itoa(i), variant(loopProgram, i)); err != nil {
			t.Fatal(err)
		}
	}
	check(srv1, "after uploads", []int{3, 2})
	for i := 0; i < 2; i++ { // same content again: acknowledged, not stored
		if err := client1.AddSampleASM("clean", "again"+itoa(i), variant(chainProgram, i)); err != nil {
			t.Fatal(err)
		}
	}
	check(srv1, "after re-uploads", []int{3, 2})
	crash(srv1)

	srv2, client2, _, _ := bootStatefulServer(t, dir)
	check(srv2, "after restart", []int{3, 2})
	if err := client2.AddSampleASM("dirty", "late", variant(loopProgram, 7)); err != nil {
		t.Fatal(err)
	}
	check(srv2, "after a post-restart upload", []int{3, 3})
}
