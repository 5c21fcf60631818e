package obs

import "time"

// EpochUpdate is one epoch's worth of training telemetry. It mirrors
// core.EpochStats without importing core (obs stays dependency-free; the
// adapter lives with the caller).
type EpochUpdate struct {
	Epoch        int
	TrainLoss    float64
	TrainAcc     float64
	HasVal       bool
	ValLoss      float64
	ValAcc       float64
	LearningRate float64
	Duration     time.Duration
	BestEpoch    int
}

// TrainingMetrics publishes the telemetry of the service's training jobs
// (POST /v1/train returns a job ID; GET/DELETE /v1/train/{id} observe and
// cancel it): submissions, the running flag, outcomes and durations of
// whole jobs, and the per-epoch numbers of the running one — loss and
// accuracy gauges (train and validation), epoch duration histogram,
// best-epoch and learning-rate gauges.
type TrainingMetrics struct {
	submitted *Counter
	active    *Gauge
	completed *CounterVec // outcome
	duration  *Histogram
	samples   *Gauge
	epochs    *Counter
	epoch     *Gauge
	loss      *GaugeVec // set
	accuracy  *GaugeVec // set
	lr        *Gauge
	bestEpoch *Gauge
	epochDur  *Histogram
}

// NewTrainingMetrics registers the training metric families on r.
// Registration is idempotent, like all registry calls.
func NewTrainingMetrics(r *Registry) *TrainingMetrics {
	return &TrainingMetrics{
		submitted: r.Counter("magic_train_job_submitted_total",
			"Training jobs accepted by POST /v1/train."),
		active: r.Gauge("magic_train_job_active",
			"1 while a training job is running, else 0."),
		completed: r.CounterVec("magic_train_job_completed_total",
			"Training jobs finished, by outcome (ok, error or cancelled).", "outcome"),
		duration: r.Histogram("magic_train_job_duration_seconds",
			"Wall-clock duration of finished training jobs.", DefBuckets),
		samples: r.Gauge("magic_train_samples",
			"Number of samples in the most recent training job."),
		epochs: r.Counter("magic_train_epochs_total",
			"Total training epochs completed across all jobs."),
		epoch: r.Gauge("magic_train_epoch",
			"Index of the most recently completed epoch in the current job."),
		loss: r.GaugeVec("magic_train_loss",
			"Loss of the most recently completed epoch.", "set"),
		accuracy: r.GaugeVec("magic_train_accuracy",
			"Accuracy of the most recently completed epoch.", "set"),
		lr: r.Gauge("magic_train_learning_rate",
			"Learning rate after the most recently completed epoch."),
		bestEpoch: r.Gauge("magic_train_best_epoch",
			"Epoch with the lowest monitored loss so far in the current job."),
		epochDur: r.Histogram("magic_train_epoch_duration_seconds",
			"Wall-clock duration of each training epoch.", DefBuckets),
	}
}

// JobStarted marks a job accepted and running over the given sample count.
// The service admits one job at a time, so the active gauge is a 0/1 flag.
func (t *TrainingMetrics) JobStarted(samples int) {
	t.submitted.Inc()
	t.active.Set(1)
	t.samples.Set(float64(samples))
}

// JobFinished marks the running job terminal with the given outcome ("ok",
// "error" or "cancelled") and wall-clock duration.
func (t *TrainingMetrics) JobFinished(outcome string, d time.Duration) {
	t.active.Set(0)
	t.completed.With(outcome).Inc()
	t.duration.Observe(d.Seconds())
}

// ObserveEpoch publishes one epoch's telemetry. It is the obs-side half of
// a core.EpochObserver.
func (t *TrainingMetrics) ObserveEpoch(u EpochUpdate) {
	t.epochs.Inc()
	t.epoch.Set(float64(u.Epoch))
	t.loss.With("train").Set(u.TrainLoss)
	t.accuracy.With("train").Set(u.TrainAcc)
	if u.HasVal {
		t.loss.With("val").Set(u.ValLoss)
		t.accuracy.With("val").Set(u.ValAcc)
	}
	t.lr.Set(u.LearningRate)
	t.bestEpoch.Set(float64(u.BestEpoch))
	t.epochDur.Observe(u.Duration.Seconds())
}
