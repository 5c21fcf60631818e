package service

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/obs"
)

// TestCloseLeavesNoGoroutine is the shutdown contract of a stateful server
// that has done everything that starts goroutines: a full job, a continual
// job, concurrent predictions through the admission batcher, a job cancelled
// with DELETE /v1/train/{id}, and a many-epoch job still training when Close
// arrives. Close must cancel that job and wait for it, and afterwards no
// goroutine of the service (or of the core training engine it drives) may
// be left running.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	check := leakcheck.Start(t)

	srv, err := NewWithRegistry([]string{"clean", "dirty"}, testConfig(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.AttachStore(store); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	seedCorpus(t, client, 3)
	if _, err := client.Train(2, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := client.AddSampleASM("clean", "", variant(chainProgram, 20+i)); err != nil {
			t.Fatal(err)
		}
		if err := client.AddSampleASM("dirty", "", variant(loopProgram, 20+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.TrainAndWait(ctx, TrainModeContinual, 2, 0); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.PredictASM(variant(loopProgram, i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("predict %d: %v", i, err)
		}
	}

	cancelled, err := client.StartTrain(ctx, 1_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.CancelTrain(ctx, cancelled.Job); err != nil {
		t.Fatal(err)
	}
	if st, err := client.WaitTrain(ctx, cancelled.Job); err != nil || st.Status != JobCancelled {
		t.Fatalf("DELETEd job: status %+v, err %v; want cancelled", st, err)
	}

	running, err := client.StartTrain(ctx, 1_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Close returns only once the job goroutine has settled the job.
	if st := srv.lookupJob(running.Job).status(); st.Status != JobCancelled {
		t.Errorf("job running at Close is %q when Close returns, want %q", st.Status, JobCancelled)
	}
	check()
}
