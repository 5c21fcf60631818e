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

// compactNow seals the attached store's open segment.
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
// stored sample — no decoded graph, whether the sample is in a sealed
// segment or the open one — so the heap it retains across AttachStore is a
// few hundred bytes per sample, whatever the graphs weigh (decoding them
// all retains ≈ 8 KB each here; the index ≈ 150 B). resident_samples stays
// 0 through AttachStore, every upload and every seal.
func TestCorpusHeapPerSegmentSample(t *testing.T) {
	const segSamples, openSamples = 2400, 8
	const stored = segSamples + openSamples
	dir := t.TempDir()
	families := []string{"clean", "dirty"}
	rng := rand.New(rand.NewSource(3))
	sample := func(i int) *corpus.Record {
		a := malgen.GenerateACFG(rng, malgen.YanProfileFor(i%2))
		return &corpus.Record{Family: families[i%2], Name: fmt.Sprintf("s-%05d", i), Hash: a.ContentHash(), ACFG: a}
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < stored; i++ {
		if i == segSamples {
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
		}
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
	if replayed != stored {
		t.Fatalf("replayed %d samples, want %d", replayed, stored)
	}
	perSample := float64(after-before) / stored
	t.Logf("AttachStore retained %d B: %.0f B per stored sample", after-before, perSample)
	if perSample > 256 {
		t.Errorf("AttachStore retained %.0f B of heap per stored sample, want ≤ 256", perSample)
	}

	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL)
	noneResident := func(samples int, when string) {
		t.Helper()
		hs, err := client.HealthInfo()
		if err != nil {
			t.Fatal(err)
		}
		if hs.ResidentSamples != 0 || hs.CorpusSamples != samples {
			t.Fatalf("%s: /healthz resident_samples %d of %d, want 0 of %d", when, hs.ResidentSamples, hs.CorpusSamples, samples)
		}
		if got := scrape(t, ts.URL)["magic_corpus_resident_samples"]; got != 0 {
			t.Fatalf("%s: magic_corpus_resident_samples = %v, want 0", when, got)
		}
	}
	noneResident(stored, "after AttachStore")
	if err := client.AddSampleASM("clean", "", chainProgram); err != nil {
		t.Fatal(err)
	}
	noneResident(stored+1, "after an upload")
	compactNow(t, srv)
	noneResident(stored+1, "after a seal")
}

// TestIngestUnderCompactionLeavesNothingResident: concurrent uploads with a
// seal after every append. Every upload lands in a segment and nothing is
// held decoded, however the uploads and seals interleave. Run it under
// -race.
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
	hs, err := client.HealthInfo()
	if err != nil {
		t.Fatal(err)
	}
	if hs.CorpusSamples != callers*each || hs.SegmentSamples != callers*each || hs.CorpusSegments != callers*each ||
		hs.WALSamples != 0 || hs.ResidentSamples != 0 {
		t.Fatalf("after the uploads: %+v; want %d samples, each sealed in its own segment, none open or resident", hs, callers*each)
	}
	if got := scrape(t, client.BaseURL)[`magic_corpus_compactions_total{outcome="ok"}`]; got != callers*each {
		t.Fatalf("magic_corpus_compactions_total{outcome=ok} = %v, want %d seals", got, callers*each)
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
// reaches the numerics, for any conv backend. A full job (with a
// validation split) and then a continual job write byte-identical
// checkpoints and results with the corpus resident (no state dir), read
// from the store's segments, and read from the store while uploads append
// to the open segment and a seal commits during each job. The uploads land
// after the job's snapshot either way, so every mode trains on the same
// samples.
func TestOutOfCoreTrainingBitIdentical(t *testing.T) {
	ctx := context.Background()
	const epochs = 100 // long enough that the uploads and the seal land mid-job
	families := []string{"clean", "dirty"}
	base := dataset.New(families)
	increment := dataset.New(families)
	for i := 0; i < 12; i++ {
		d, k := base, i
		if i >= 8 {
			d, k = increment, 20+i
		}
		d.Add(&dataset.Sample{Name: fmt.Sprintf("c%02d", i), Label: 0, ACFG: asmACFG(t, variant(chainProgram, k))})
		d.Add(&dataset.Sample{Name: fmt.Sprintf("d%02d", i), Label: 1, ACFG: asmACFG(t, variant(loopProgram, k))})
	}

	type outcome struct{ checkpoint, result []byte }
	run := func(t *testing.T, conv, mode string) []outcome {
		cfg := testConfig()
		cfg.Conv = conv
		srv, err := NewWithRegistry(families, cfg, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		var dir string
		if mode != "resident" {
			dir = t.TempDir()
			st, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := srv.AttachStore(st); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { crash(srv) })
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		client := NewClient(ts.URL)
		uploaded := 0
		upload := func() {
			for i := 0; i < 3; i++ {
				if err := client.AddSampleASM("clean", "", variant(chainProgram, 100+uploaded)); err != nil {
					t.Fatal(err)
				}
				uploaded++
			}
		}
		job := func(start func() (*TrainJobStatus, error)) outcome {
			js, err := start()
			if err != nil {
				t.Fatal(err)
			}
			if mode == "store, uploads and a seal during the job" {
				upload()
				compactNow(t, srv)
				if cur := srv.lookupJob(js.Job).status(); cur.Terminal() {
					t.Fatalf("job %s was %s before the seal committed; the test needs a longer job", cur.Job, cur.Status)
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
			var ckpt bytes.Buffer
			srv.mu.Lock()
			err = srv.model.Save(&ckpt)
			srv.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			if dir != "" {
				onDisk, err := os.ReadFile(filepath.Join(dir, modelFilename))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(onDisk, ckpt.Bytes()) {
					t.Fatal("model.json is not the serving model's checkpoint")
				}
			}
			if mode != "store, uploads and a seal during the job" {
				upload()
			}
			return outcome{ckpt.Bytes(), res}
		}
		if err := srv.ImportCorpus(base); err != nil {
			t.Fatal(err)
		}
		full := job(func() (*TrainJobStatus, error) { return client.StartTrain(ctx, epochs, 0.25) })
		if err := srv.ImportCorpus(increment); err != nil {
			t.Fatal(err)
		}
		cont := job(func() (*TrainJobStatus, error) { return client.StartContinual(ctx, epochs, 0) })
		srv.mu.Lock()
		resident, total := srv.corpus.Resident(), srv.corpus.Len()
		srv.mu.Unlock()
		if want := map[bool]int{true: total, false: 0}[dir == ""]; resident != want {
			t.Fatalf("%d of %d samples resident, want %d", resident, total, want)
		}
		return []outcome{full, cont}
	}

	for _, conv := range []string{"gcn", "sage", "tag", "attn"} {
		t.Run(conv, func(t *testing.T) {
			want := run(t, conv, "resident")
			for _, mode := range []string{"store", "store, uploads and a seal during the job"} {
				got := run(t, conv, mode)
				for i, name := range []string{"full", "continual"} {
					if !bytes.Equal(got[i].checkpoint, want[i].checkpoint) {
						t.Errorf("%s: the %s job's checkpoint differs from the resident corpus's", mode, name)
					}
					if !bytes.Equal(got[i].result, want[i].result) {
						t.Errorf("%s: the %s job's result %s, resident corpus %s", mode, name, got[i].result, want[i].result)
					}
				}
			}
		})
	}
}
