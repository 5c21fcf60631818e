package service

import (
	"context"
	"strings"
	"testing"
)

// versionFingerprint digests a registered version's weights as they are
// now; the registry's own fingerprint was taken at registration and cannot
// see a later write.
func versionFingerprint(t *testing.T, srv *Server, version string) string {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	mv, ok := srv.versions[version]
	if !ok {
		t.Fatalf("version %q is not registered", version)
	}
	return mv.model.Fingerprint()
}

// requireSamePredictions fails unless got ranks the same families with
// bit-identical probabilities as want (encoding/json round-trips a float64
// exactly).
func requireSamePredictions(t *testing.T, what string, want, got *PredictResult) {
	t.Helper()
	if len(got.Predictions) != len(want.Predictions) {
		t.Fatalf("%s: %d predictions, want %d", what, len(got.Predictions), len(want.Predictions))
	}
	for i, p := range want.Predictions {
		if got.Predictions[i] != p {
			t.Fatalf("%s: prediction %d is %+v, want %+v", what, i, got.Predictions[i], p)
		}
	}
}

// TestContinualTrainPromotes drives the happy path of the continual mode:
// after a full run, correctly-labeled new samples are fine-tuned onto a
// clone of the serving model, the holdout gate passes, and the tuned model
// is promoted as a new version with the watermark advanced past the
// increment. The clone is deep: the base version, now the rollback target,
// keeps its fingerprint and serves the same bits once rolled back to.
func TestContinualTrainPromotes(t *testing.T) {
	srv, _, client := newTestServer(t, []string{"clean", "dirty"})
	seedCorpus(t, client, 3)

	ctx := context.Background()
	if _, err := client.Train(4, 0); err != nil {
		t.Fatal(err)
	}
	before, err := client.PredictASM(loopProgram)
	if err != nil {
		t.Fatal(err)
	}
	baseFingerprint := versionFingerprint(t, srv, before.ModelVersion)

	// New, correctly-labeled samples past the watermark.
	for i := 0; i < 2; i++ {
		if err := client.AddSampleASM("clean", "", variant(chainProgram, 20+i)); err != nil {
			t.Fatal(err)
		}
		if err := client.AddSampleASM("dirty", "", variant(loopProgram, 20+i)); err != nil {
			t.Fatal(err)
		}
	}

	job, err := client.StartContinual(ctx, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if job.Mode != TrainModeContinual {
		t.Fatalf("job mode = %q, want continual", job.Mode)
	}
	if job.Samples != 4 {
		t.Fatalf("job samples = %d, want the 4-sample increment", job.Samples)
	}
	st, err := client.WaitTrain(ctx, job.Job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != JobSucceeded {
		t.Fatalf("job status = %q (error %q), want succeeded", st.Status, st.Error)
	}
	res := st.Result
	if res == nil {
		t.Fatal("succeeded job has no result")
	}
	if res.Mode != TrainModeContinual || res.NewSamples != 4 {
		t.Fatalf("result = %+v, want continual over 4 new samples", res)
	}
	// The job's epoch budget applies to the fine-tune, not the budget baked
	// into the base model's config by the earlier full training run.
	if res.Epochs != 3 {
		t.Fatalf("continual run trained %d epochs, want the requested 3", res.Epochs)
	}
	if !res.Promoted {
		t.Fatalf("gate rejected a well-labeled increment (holdout %.3f vs baseline %.3f)",
			res.HoldoutAcc, res.BaselineAcc)
	}
	if res.HoldoutAcc < res.BaselineAcc {
		t.Fatalf("promoted despite regression: holdout %.3f < baseline %.3f", res.HoldoutAcc, res.BaselineAcc)
	}

	after, err := client.PredictASM(loopProgram)
	if err != nil {
		t.Fatal(err)
	}
	if after.ModelVersion == before.ModelVersion {
		t.Fatalf("model version unchanged (%q) after promotion", after.ModelVersion)
	}
	// An increment sample the model was just tuned on must classify right.
	tuned, err := client.PredictASM(variant(loopProgram, 20))
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Predictions[0].Family != "dirty" {
		t.Fatalf("tuned model predicts %q for an increment sample, want dirty", tuned.Predictions[0].Family)
	}

	// The watermark advanced: a follow-up continual run has nothing new.
	srv.mu.Lock()
	through, total := srv.trainedThrough, srv.corpus.Len()
	srv.mu.Unlock()
	if through != total {
		t.Fatalf("trainedThrough = %d, want %d (whole corpus)", through, total)
	}
	if _, err := client.StartContinual(ctx, 1, 0); err == nil ||
		!strings.Contains(err.Error(), "no new samples") {
		t.Fatalf("continual with no increment: err = %v, want 'no new samples' precondition", err)
	}

	models, err := client.RollbackModel(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if models.Active != before.ModelVersion {
		t.Fatalf("rolled back to %q, want the base version %q", models.Active, before.ModelVersion)
	}
	if got := versionFingerprint(t, srv, before.ModelVersion); got != baseFingerprint {
		t.Fatalf("fine-tuning the clone changed the base version's weights: fingerprint %s -> %s", baseFingerprint, got)
	}
	rolledBack, err := client.PredictASM(loopProgram)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePredictions(t, "rollback target", before, rolledBack)
}

// TestContinualTrainGateRejects forces a regression: the increment is
// deliberately mislabeled, so fine-tuning drags holdout accuracy below the
// baseline. The job must still succeed, but with Promoted=false, the
// serving model untouched — same fingerprint, bit-identical probabilities,
// so the clone that was tuned shared no tensor with it — and the watermark
// left so the increment is retried by a later job.
func TestContinualTrainGateRejects(t *testing.T) {
	srv, _, client := newTestServer(t, []string{"clean", "dirty"})
	seedCorpus(t, client, 3)

	ctx := context.Background()
	if _, err := client.Train(4, 0); err != nil {
		t.Fatal(err)
	}
	before, err := client.PredictASM(loopProgram)
	if err != nil {
		t.Fatal(err)
	}
	fingerprintBefore := versionFingerprint(t, srv, before.ModelVersion)
	srv.mu.Lock()
	throughBefore := srv.trainedThrough
	srv.mu.Unlock()

	// Poisoned increment: families swapped. A few epochs of fine-tuning
	// drag the model partway toward the flipped labeling — wrong on clean
	// holdout samples without yet "earning" the mislabeled ones — so
	// holdout accuracy lands strictly below the baseline.
	for i := 0; i < 4; i++ {
		if err := client.AddSampleASM("clean", "", variant(loopProgram, 30+i)); err != nil {
			t.Fatal(err)
		}
		if err := client.AddSampleASM("dirty", "", variant(chainProgram, 30+i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := client.TrainAndWait(ctx, TrainModeContinual, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted {
		t.Fatalf("gate promoted a poisoned increment (holdout %.3f vs baseline %.3f)",
			res.HoldoutAcc, res.BaselineAcc)
	}
	if res.HoldoutAcc >= res.BaselineAcc {
		t.Fatalf("rejection without regression: holdout %.3f >= baseline %.3f", res.HoldoutAcc, res.BaselineAcc)
	}

	// The serving model and the watermark are untouched.
	after, err := client.PredictASM(loopProgram)
	if err != nil {
		t.Fatal(err)
	}
	if after.ModelVersion != before.ModelVersion {
		t.Fatalf("rejected run changed the serving model: %q -> %q", before.ModelVersion, after.ModelVersion)
	}
	requireSamePredictions(t, "serving model after a rejected run", before, after)
	if got := versionFingerprint(t, srv, before.ModelVersion); got != fingerprintBefore {
		t.Fatalf("rejected run changed the serving weights: fingerprint %s -> %s", fingerprintBefore, got)
	}
	srv.mu.Lock()
	throughAfter := srv.trainedThrough
	srv.mu.Unlock()
	if throughAfter != throughBefore {
		t.Fatalf("rejected run moved the watermark: %d -> %d", throughBefore, throughAfter)
	}
}

// TestContinualTrainPreconditions covers admission: continual mode needs a
// trained model and a non-empty increment, and unknown modes are 400s.
func TestContinualTrainPreconditions(t *testing.T) {
	_, _, client := newTestServer(t, []string{"clean", "dirty"})
	seedCorpus(t, client, 3)
	ctx := context.Background()

	if _, err := client.StartContinual(ctx, 1, 0); err == nil ||
		!strings.Contains(err.Error(), "needs a trained model") {
		t.Fatalf("continual before full train: err = %v, want trained-model precondition", err)
	}

	if _, err := client.Train(2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := client.StartContinual(ctx, 1, 0); err == nil ||
		!strings.Contains(err.Error(), "no new samples") {
		t.Fatalf("continual without increment: err = %v, want no-new-samples precondition", err)
	}

	if _, err := client.do(ctx, "POST", "/v1/train", trainBody{Mode: "sideways"}, 202); err == nil ||
		!strings.Contains(err.Error(), "unknown training mode") {
		t.Fatalf("bogus mode: err = %v, want unknown-mode 400", err)
	}
}
