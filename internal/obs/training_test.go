package obs

import (
	"strings"
	"testing"
	"time"
)

func TestTrainingMetricsLifecycle(t *testing.T) {
	r := NewRegistry()
	tm := NewTrainingMetrics(r)

	tm.JobStarted(42)
	if got := tm.active.Value(); got != 1 {
		t.Fatalf("active = %v, want 1", got)
	}
	if got := tm.submitted.Value(); got != 1 {
		t.Fatalf("submitted = %v, want 1", got)
	}
	if got := tm.samples.Value(); got != 42 {
		t.Fatalf("samples = %v, want 42", got)
	}

	for epoch := 0; epoch < 3; epoch++ {
		tm.ObserveEpoch(EpochUpdate{
			Epoch:        epoch,
			TrainLoss:    1.0 / float64(epoch+1),
			TrainAcc:     0.5 + 0.1*float64(epoch),
			HasVal:       true,
			ValLoss:      1.2 / float64(epoch+1),
			ValAcc:       0.4 + 0.1*float64(epoch),
			LearningRate: 1e-4,
			Duration:     5 * time.Millisecond,
			BestEpoch:    epoch,
		})
	}
	tm.JobFinished("ok", 20*time.Millisecond)

	if got := tm.epochs.Value(); got != 3 {
		t.Fatalf("epochs total = %v, want 3", got)
	}
	if got := tm.epoch.Value(); got != 2 {
		t.Fatalf("current epoch = %v, want 2", got)
	}
	wantValLoss := 1.2 / float64(3) // matches the runtime arithmetic above
	if got := tm.loss.With("val").Value(); got != wantValLoss {
		t.Fatalf("val loss = %v, want %v", got, wantValLoss)
	}
	if got := tm.accuracy.With("train").Value(); got != 0.7 {
		t.Fatalf("train acc = %v, want 0.7", got)
	}
	if got := tm.epochDur.Count(); got != 3 {
		t.Fatalf("epoch duration observations = %v, want 3", got)
	}
	if got := tm.active.Value(); got != 0 {
		t.Fatalf("active = %v, want 0 after finish", got)
	}
	if got := tm.completed.With("ok").Value(); got != 1 {
		t.Fatalf("ok jobs = %v, want 1", got)
	}

	tm.JobStarted(7)
	tm.JobFinished("cancelled", time.Millisecond)
	if got := tm.completed.With("cancelled").Value(); got != 1 {
		t.Fatalf("cancelled jobs = %v, want 1", got)
	}
	if got := tm.duration.Count(); got != 2 {
		t.Fatalf("job duration observations = %v, want 2", got)
	}
}

func TestTrainingMetricsSkipsValWhenAbsent(t *testing.T) {
	r := NewRegistry()
	tm := NewTrainingMetrics(r)
	tm.ObserveEpoch(EpochUpdate{Epoch: 0, TrainLoss: 0.5, TrainAcc: 0.9})

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `magic_train_loss{set="train"}`) {
		t.Fatal("train loss series missing")
	}
	if strings.Contains(out, `set="val"`) {
		t.Fatal("val series present without a validation set")
	}
}

func TestTimeStageRecordsOnDefault(t *testing.T) {
	before := stageTotal.With("test_stage").Value()
	durBefore := stageDuration.With("test_stage").Count()
	func() {
		defer TimeStage("test_stage")()
		time.Sleep(time.Millisecond)
	}()
	if got := stageTotal.With("test_stage").Value(); got != before+1 {
		t.Fatalf("stage total = %v, want %v", got, before+1)
	}
	if got := stageDuration.With("test_stage").Count(); got != durBefore+1 {
		t.Fatalf("stage duration count = %v, want %v", got, durBefore+1)
	}
	if sum := stageDuration.With("test_stage").Sum(); sum <= 0 {
		t.Fatalf("stage duration sum = %v, want > 0", sum)
	}
}
