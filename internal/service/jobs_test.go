package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// seedCorpus uploads n samples per family so /v1/train admits a job.
func seedCorpus(t *testing.T, client *Client, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := client.AddSampleASM("clean", "", variant(chainProgram, i)); err != nil {
			t.Fatal(err)
		}
		if err := client.AddSampleASM("dirty", "", variant(loopProgram, i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTrainJobLifecycle drives the full async contract over the wire:
// submit returns 202 with a running job, status polling reaches a terminal
// succeeded state carrying the result, and the model is installed.
// trainingActive reports whether a training job is currently running.
func trainingActive(s *Server) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.curJob != nil
}

func TestTrainJobLifecycle(t *testing.T) {
	srv, ts, client := newTestServer(t, []string{"clean", "dirty"})
	seedCorpus(t, client, 3)

	ctx := context.Background()
	submitted := time.Now()
	job, err := client.StartTrain(ctx, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The tentpole acceptance criterion: submission must not block on the
	// run. The budget is generous — the point is "not proportional to
	// epochs", not a latency benchmark.
	if d := time.Since(submitted); d > time.Second {
		t.Fatalf("POST /v1/train took %v, want < 1s", d)
	}
	if job.Job == "" {
		t.Fatal("submitted job has no ID")
	}
	if job.Epochs != 4 {
		t.Fatalf("job epochs = %d, want 4", job.Epochs)
	}
	if job.Samples != 6 {
		t.Fatalf("job samples = %d, want 6", job.Samples)
	}

	st, err := client.WaitTrain(ctx, job.Job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != JobSucceeded {
		t.Fatalf("job status = %q (error %q), want succeeded", st.Status, st.Error)
	}
	if st.Result == nil {
		t.Fatal("succeeded job has no result")
	}
	if st.Result.Epochs != 4 || st.Result.Samples != 6 {
		t.Fatalf("result = %+v, want 4 epochs over 6 samples", st.Result)
	}
	if st.Epoch != 4 {
		t.Fatalf("job progress epoch = %d, want 4 (all epochs observed)", st.Epoch)
	}
	if st.FinishedAt == "" {
		t.Fatal("terminal job has no finishedAt")
	}
	if trainingActive(srv) {
		t.Fatal("server still reports training after terminal job")
	}
	if _, err := client.PredictASM(loopProgram); err != nil {
		t.Fatalf("predict after trained job: %v", err)
	}

	// The terminal job stays queryable, and cancelling it is a 200 no-op
	// that does not disturb its state.
	again, err := client.TrainStatus(ctx, job.Job)
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != JobSucceeded {
		t.Fatalf("re-queried status = %q, want succeeded", again.Status)
	}
	cancelled, err := client.CancelTrain(ctx, job.Job)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled.Status != JobSucceeded {
		t.Fatalf("cancel of finished job reports %q, want succeeded", cancelled.Status)
	}

	resp, err := http.Get(ts.URL + "/v1/train/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestTrainJobCancel exercises cooperative cancellation: a long job is
// cancelled mid-run, ends in the cancelled state, and the model that was
// serving before the job keeps serving after it.
func TestTrainJobCancel(t *testing.T) {
	srv, _, client := newTestServer(t, []string{"clean", "dirty"})
	seedCorpus(t, client, 2)

	ctx := context.Background()
	// Install a baseline model first so we can verify it survives.
	if _, err := client.Train(2, 0); err != nil {
		t.Fatal(err)
	}
	before, err := client.PredictASM(loopProgram)
	if err != nil {
		t.Fatal(err)
	}

	job, err := client.StartTrain(ctx, 1_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Predictions must keep serving from the old model while the job runs.
	if _, err := client.PredictASM(chainProgram); err != nil {
		t.Fatalf("predict during training: %v", err)
	}
	st, err := client.CancelTrain(ctx, job.Job)
	if err != nil {
		t.Fatal(err)
	}
	if !st.CancelRequested {
		t.Fatal("cancel response does not acknowledge the request")
	}
	st, err = client.WaitTrain(ctx, job.Job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != JobCancelled {
		t.Fatalf("job status = %q (error %q), want cancelled", st.Status, st.Error)
	}
	if st.Result != nil {
		t.Fatal("cancelled job carries a result")
	}
	if trainingActive(srv) {
		t.Fatal("server still reports training after cancellation")
	}

	// The pre-job model still serves, unchanged by the aborted run.
	after, err := client.PredictASM(loopProgram)
	if err != nil {
		t.Fatalf("predict after cancelled job: %v", err)
	}
	if before.Predictions[0].Family != after.Predictions[0].Family {
		t.Fatalf("top family changed across a cancelled run: %q -> %q",
			before.Predictions[0].Family, after.Predictions[0].Family)
	}

	// The server is idle again: a fresh job is admitted immediately.
	job2, err := client.StartTrain(ctx, 2, 0)
	if err != nil {
		t.Fatalf("submit after cancelled job: %v", err)
	}
	if st, err = client.WaitTrain(ctx, job2.Job); err != nil {
		t.Fatal(err)
	}
	if st.Status != JobSucceeded {
		t.Fatalf("follow-up job status = %q, want succeeded", st.Status)
	}
}

// TestTrainRejectsMalformedBody guards the swallowed-decode-error fix: a
// chunked request (ContentLength == -1) with malformed JSON must be a 400,
// while a genuinely empty body still means "all defaults".
func TestTrainRejectsMalformedBody(t *testing.T) {
	_, ts, client := newTestServer(t, []string{"clean", "dirty"})
	seedCorpus(t, client, 2)

	// strings.Reader would advertise a Content-Length; an io.Reader with no
	// Len() forces chunked transfer encoding, the regression's trigger.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/train",
		struct{ io.Reader }{strings.NewReader(`{"epochs": `)})
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed chunked body status = %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "decode request") {
		t.Fatalf("error %q does not mention the decode failure", e.Error)
	}

	// Valid-but-empty body: accepted, defaults apply.
	resp2, err := http.Post(ts.URL+"/v1/train", "application/json", http.NoBody)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("empty body status = %d, want 202", resp2.StatusCode)
	}
	var st TrainJobStatus
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitTrain(context.Background(), st.Job); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedBodyRejected guards the MaxBytesReader fix: a request body
// beyond the cap must come back as 413, not a generic 400, and must not
// poison the connection.
func TestOversizedBodyRejected(t *testing.T) {
	_, ts, _ := newTestServer(t, []string{"clean", "dirty"})

	huge := bytes.Repeat([]byte("x"), maxBodyBytes+1024)
	body, err := json.Marshal(map[string]string{"family": "clean", "asm": string(huge)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/samples", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}

	// The server survives: a normal request on a fresh connection works.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthz after oversized request = %d, want 200", resp2.StatusCode)
	}
}

// TestJobHistoryBounded checks that finished jobs are evicted beyond
// maxJobHistory while the newest remain queryable.
func TestJobHistoryBounded(t *testing.T) {
	srv, _, client := newTestServer(t, []string{"clean", "dirty"})
	seedCorpus(t, client, 2)

	ctx := context.Background()
	var ids []string
	for i := 0; i < maxJobHistory+3; i++ {
		job, err := client.StartTrain(ctx, 1, 0)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if _, err := client.WaitTrain(ctx, job.Job); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		ids = append(ids, job.Job)
	}

	srv.mu.Lock()
	kept := len(srv.jobs)
	srv.mu.Unlock()
	if kept != maxJobHistory {
		t.Fatalf("job history holds %d entries, want %d", kept, maxJobHistory)
	}
	if _, err := client.TrainStatus(ctx, ids[0]); err == nil {
		t.Fatalf("oldest job %s still queryable, want evicted", ids[0])
	}
	if _, err := client.TrainStatus(ctx, ids[len(ids)-1]); err != nil {
		t.Fatalf("newest job: %v", err)
	}
}
