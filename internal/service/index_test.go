package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/malgen"
	"repro/internal/obs"
)

// compactNow forces the attached store's compactor to fold the whole WAL.
func compactNow(t *testing.T, srv *Server) {
	t.Helper()
	srv.mu.Lock()
	st := srv.store
	srv.mu.Unlock()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
}

// liveHeap is the heap still reachable after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCorpusHeapPerSegmentSample pins what the out-of-core index exists
// for: a server attached to a state dir keeps only an index entry per
// segment-resident sample — no decoded graph — so the heap it retains
// across AttachStore is a few hundred bytes per such sample, whatever the
// graphs weigh (decoding them all, as the server used to, retains ≈ 8 KB
// each here; the index ≈ 150 B). Only the WAL tail stays decoded, and
// resident_samples says how much that is.
func TestCorpusHeapPerSegmentSample(t *testing.T) {
	const segSamples, walSamples = 2400, 8
	dir := t.TempDir()
	families := []string{"clean", "dirty"}
	rng := rand.New(rand.NewSource(3))
	sample := func(i int) *corpus.Record {
		a := malgen.GenerateACFG(rng, malgen.YanProfileFor(i%2))
		return &corpus.Record{Family: families[i%2], Name: fmt.Sprintf("s-%05d", i), Hash: a.ContentHash(), ACFG: a}
	}
	w, err := corpus.NewWriter(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < segSamples; i++ {
		if err := w.Append(sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := segSamples; i < segSamples+walSamples; i++ {
		r := sample(i)
		if err := st.AppendSample(r.Family, r.Name, r.Hash, r.ACFG); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	srv, err := NewWithRegistry(families, testConfig(), reg)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	replayed, _, err := srv.AttachStore(st)
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	t.Cleanup(func() { crash(srv) })
	if replayed != segSamples+walSamples {
		t.Fatalf("replayed %d samples, want %d", replayed, segSamples+walSamples)
	}
	perSample := float64(after-before) / segSamples
	t.Logf("AttachStore retained %d B: %.0f B per segment-resident sample", after-before, perSample)
	if perSample > 256 {
		t.Errorf("AttachStore retained %.0f B of heap per segment-resident sample, want ≤ 256", perSample)
	}

	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL)
	resident := func(want int, when string) {
		t.Helper()
		hs, err := client.HealthInfo()
		if err != nil {
			t.Fatal(err)
		}
		if hs.ResidentSamples != want || hs.CorpusSamples != segSamples+walSamples {
			t.Fatalf("%s: /healthz resident_samples %d of %d, want %d of %d", when, hs.ResidentSamples, hs.CorpusSamples, want, segSamples+walSamples)
		}
		if got := scrape(t, ts.URL)["magic_corpus_resident_samples"]; got != float64(want) {
			t.Fatalf("%s: magic_corpus_resident_samples = %v, want %d", when, got, want)
		}
	}
	resident(walSamples, "after AttachStore")
	compactNow(t, srv)
	resident(0, "after Compact")
}

// TestIngestUnderCompactionLeavesNothingResident: uploads race the
// background compactor, which folds the WAL after every append. Each
// upload's index entry must exist before any compaction can read its WAL
// record, or the compactor cannot re-point it and the sample stays decoded
// for the life of the process. Once the last compaction has run, every
// sample is in a segment and nothing is resident. Run it under -race.
func TestIngestUnderCompactionLeavesNothingResident(t *testing.T) {
	const callers, each = 4, 12
	srv, client, _, _ := bootStatefulServer(t, t.TempDir())
	srv.EnableCompaction(1, nil)
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			var err error
			for i := 0; i < each && err == nil; i++ {
				err = client.AddSampleASM("clean", "", variant(chainProgram, c*each+i))
			}
			errs <- err
		}(c)
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	compactNow(t, srv)
	hs, err := client.HealthInfo()
	if err != nil {
		t.Fatal(err)
	}
	if hs.CorpusSamples != callers*each || hs.SegmentSamples != callers*each || hs.ResidentSamples != 0 {
		t.Fatalf("after the last compaction: %d samples, %d in segments, %d resident; want %d, %d, 0",
			hs.CorpusSamples, hs.SegmentSamples, hs.ResidentSamples, callers*each, callers*each)
	}
}

// TestServerWithoutStoreHoldsEveryEntryResident: with no state dir there is
// nowhere else for a graph to live, and /healthz says so.
func TestServerWithoutStoreHoldsEveryEntryResident(t *testing.T) {
	_, _, client := newTestServer(t, []string{"clean", "dirty"})
	seedCorpus(t, client, 2)
	hs, err := client.HealthInfo()
	if err != nil {
		t.Fatal(err)
	}
	if hs.CorpusSamples == 0 || hs.ResidentSamples != hs.CorpusSamples {
		t.Fatalf("resident_samples %d of %d, want all", hs.ResidentSamples, hs.CorpusSamples)
	}
}

// TestTrainJobFailsOnCorruptSegmentRecord: a training job decodes
// segment-resident samples from disk, so a record corrupted after boot
// replay verified it surfaces there — as a failed job naming the sample,
// not a panic and not a silently skipped sample — while the server keeps
// serving the model it had.
func TestTrainJobFailsOnCorruptSegmentRecord(t *testing.T) {
	dir := t.TempDir()
	srv1, client1, _, _ := bootStatefulServer(t, dir)
	for i := 0; i < 3; i++ {
		if err := client1.AddSampleASM("clean", "", variant(chainProgram, i)); err != nil {
			t.Fatal(err)
		}
		if err := client1.AddSampleASM("dirty", "", variant(loopProgram, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client1.Train(2, 0); err != nil {
		t.Fatal(err)
	}
	compactNow(t, srv1)
	crash(srv1)

	_, client2, _, loaded := bootStatefulServer(t, dir)
	if !loaded {
		t.Fatal("no model checkpoint came back")
	}
	// Flip the segment's last byte: an attribute bit of its last record.
	segs, err := corpus.ListSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (%v), want 1", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	job, err := client2.StartTrain(ctx, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := client2.WaitTrain(ctx, job.Job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != JobFailed || !strings.Contains(st.Error, "core: training sample 5: ") || !strings.Contains(st.Error, "checksum mismatch") {
		t.Fatalf("job ended %s with %q, want failed with core: training sample 5: … checksum mismatch", st.Status, st.Error)
	}
	if _, err := client2.PredictASM(loopProgram); err != nil {
		t.Fatalf("predict after the failed job: %v", err)
	}
	if err := client2.Health(); err != nil {
		t.Fatalf("healthz after the failed job: %v", err)
	}
}

// TestOutOfCoreTrainingBitIdentical: where a sample's graph lives never
// reaches the numerics. A full job (with a validation split) and then a
// continual job write byte-identical checkpoints and results whether the
// corpus stays resident in the WAL tail, was folded into segments before
// each job started, or is folded while each job runs.
func TestOutOfCoreTrainingBitIdentical(t *testing.T) {
	ctx := context.Background()
	const epochs = 100 // long enough that a compaction (≈ 5 ms) lands mid-job
	base := dataset.New([]string{"clean", "dirty"})
	increment := dataset.New([]string{"clean", "dirty"})
	for i := 0; i < 12; i++ {
		d, k := base, i
		if i >= 8 {
			d, k = increment, 20+i
		}
		d.Add(&dataset.Sample{Name: fmt.Sprintf("c%02d", i), Label: 0, ACFG: asmACFG(t, variant(chainProgram, k))})
		d.Add(&dataset.Sample{Name: fmt.Sprintf("d%02d", i), Label: 1, ACFG: asmACFG(t, variant(loopProgram, k))})
	}

	type outcome struct{ checkpoint, result []byte }
	run := func(t *testing.T, compact string) []outcome {
		dir := t.TempDir()
		srv, client, _, _ := bootStatefulServer(t, dir)
		job := func(start func() (*TrainJobStatus, error)) outcome {
			if compact == "before" {
				compactNow(t, srv)
				if n := srv.corpus.Resident(); n != 0 {
					t.Fatalf("%d samples still resident after compaction", n)
				}
			}
			js, err := start()
			if err != nil {
				t.Fatal(err)
			}
			if compact == "during" {
				compactNow(t, srv)
				if n := srv.corpus.Resident(); n != 0 {
					t.Fatalf("%d samples still resident after compaction", n)
				}
				if cur := srv.lookupJob(js.Job).status(); cur.Terminal() {
					t.Fatalf("job %s was %s before the compaction committed; the test needs a longer job", cur.Job, cur.Status)
				}
			}
			st, err := client.WaitTrain(ctx, js.Job)
			if err != nil {
				t.Fatal(err)
			}
			if st.Status != JobSucceeded {
				t.Fatalf("job ended %s: %s", st.Status, st.Error)
			}
			res, err := json.Marshal(st.Result)
			if err != nil {
				t.Fatal(err)
			}
			ckpt, err := os.ReadFile(filepath.Join(dir, modelFilename))
			if err != nil {
				t.Fatal(err)
			}
			return outcome{ckpt, res}
		}
		if err := srv.ImportCorpus(base); err != nil {
			t.Fatal(err)
		}
		full := job(func() (*TrainJobStatus, error) { return client.StartTrain(ctx, epochs, 0.25) })
		if err := srv.ImportCorpus(increment); err != nil {
			t.Fatal(err)
		}
		cont := job(func() (*TrainJobStatus, error) { return client.StartContinual(ctx, epochs, 0) })
		return []outcome{full, cont}
	}

	want := run(t, "never")
	for _, compact := range []string{"before", "during"} {
		got := run(t, compact)
		for i, name := range []string{"full", "continual"} {
			if !bytes.Equal(got[i].checkpoint, want[i].checkpoint) {
				t.Errorf("compaction %s: the %s job's checkpoint differs from the resident corpus's", compact, name)
			}
			if !bytes.Equal(got[i].result, want[i].result) {
				t.Errorf("compaction %s: the %s job's result %s, resident corpus %s", compact, name, got[i].result, want[i].result)
			}
		}
	}
}
