package service

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/dataset"
)

// Training job modes. Full retrains from scratch on the whole corpus;
// continual fine-tunes the serving model on the samples ingested since the
// last completed job and promotes only past the holdout eval gate.
const (
	TrainModeFull      = "full"
	TrainModeContinual = "continual"
)

// continualHoldoutFraction is the default stratified holdout share used by
// the continual eval gate when the request does not set valFraction.
const continualHoldoutFraction = 0.25

// Job states. A job is created running (admission happens synchronously in
// the submit handler, so there is no queued state) and ends in exactly one
// of the three terminal states.
const (
	JobRunning   = "running"
	JobSucceeded = "succeeded"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// maxJobHistory bounds the number of finished jobs kept for status
// queries; the oldest terminal jobs are evicted first. The running job is
// never evicted.
const maxJobHistory = 32

// TrainJobStatus is the wire form of one training job, served by
// POST /v1/train (202), GET /v1/train/{id} and DELETE /v1/train/{id}, and
// decoded by the client. Loss/accuracy fields describe the most recently
// completed epoch; Result is set only once the job has succeeded.
type TrainJobStatus struct {
	Job             string       `json:"job"`
	Mode            string       `json:"mode,omitempty"`
	Status          string       `json:"status"`
	CancelRequested bool         `json:"cancelRequested,omitempty"`
	Epochs          int          `json:"epochs"`
	Epoch           int          `json:"epoch"`
	Samples         int          `json:"samples"`
	TrainLoss       float64      `json:"trainLoss,omitempty"`
	TrainAcc        float64      `json:"trainAcc,omitempty"`
	HasVal          bool         `json:"hasVal,omitempty"`
	ValLoss         float64      `json:"valLoss,omitempty"`
	ValAcc          float64      `json:"valAcc,omitempty"`
	Error           string       `json:"error,omitempty"`
	Result          *TrainResult `json:"result,omitempty"`
	StartedAt       string       `json:"startedAt,omitempty"`
	FinishedAt      string       `json:"finishedAt,omitempty"`
}

// Terminal reports whether the job has reached a final state.
func (s *TrainJobStatus) Terminal() bool {
	return s.Status == JobSucceeded || s.Status == JobFailed || s.Status == JobCancelled
}

// trainJob is the server-side record of one asynchronous training run. The
// immutable identity fields are set at submission; everything under mu is
// updated by the runner goroutine and read by the status handlers.
type trainJob struct {
	id      string
	mode    string // TrainModeFull or TrainModeContinual
	epochs  int    // requested epoch budget
	samples int
	stop    chan struct{} // closed to request cooperative cancellation
	done    chan struct{} // closed when the runner goroutine exits

	mu              sync.Mutex
	state           string
	cancelRequested bool
	epoch           int // completed epochs
	trainLoss       float64
	trainAcc        float64
	hasVal          bool
	valLoss         float64
	valAcc          float64
	errMsg          string
	result          *TrainResult
	startedAt       time.Time
	finishedAt      time.Time
}

// requestCancel flags the job for cooperative cancellation. It returns
// false when the job is already terminal (nothing to cancel).
func (j *trainJob) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobRunning {
		return false
	}
	if !j.cancelRequested {
		j.cancelRequested = true
		close(j.stop)
	}
	return true
}

// observeEpoch records one completed epoch's numbers on the job.
func (j *trainJob) observeEpoch(e core.EpochStats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.epoch = e.Epoch + 1
	j.trainLoss = e.TrainLoss
	j.trainAcc = e.TrainAcc
	j.hasVal = e.HasVal
	j.valLoss = e.ValLoss
	j.valAcc = e.ValAcc
}

// finish moves the job to a terminal state.
func (j *trainJob) finish(state, errMsg string, result *TrainResult, at time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.errMsg = errMsg
	j.result = result
	j.finishedAt = at
}

// status snapshots the job for the wire.
func (j *trainJob) status() *TrainJobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &TrainJobStatus{
		Job:             j.id,
		Mode:            j.mode,
		Status:          j.state,
		CancelRequested: j.cancelRequested,
		Epochs:          j.epochs,
		Epoch:           j.epoch,
		Samples:         j.samples,
		TrainLoss:       j.trainLoss,
		TrainAcc:        j.trainAcc,
		HasVal:          j.hasVal,
		ValLoss:         j.valLoss,
		ValAcc:          j.valAcc,
		Error:           j.errMsg,
		Result:          j.result,
		StartedAt:       j.startedAt.UTC().Format(time.RFC3339Nano),
	}
	if !j.finishedAt.IsZero() {
		st.FinishedAt = j.finishedAt.UTC().Format(time.RFC3339Nano)
	}
	return st
}

// TrainingActive reports whether a training job is currently running.
func (s *Server) TrainingActive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.curJob != nil
}

// startTrainJobLocked admits a new job (callers hold s.mu and have already
// rejected a concurrent run) and registers it in the history ring.
func (s *Server) startTrainJobLocked(mode string, epochs, samples int) *trainJob {
	s.jobSeq++
	job := &trainJob{
		id:        fmt.Sprintf("train-%06d", s.jobSeq),
		mode:      mode,
		epochs:    epochs,
		samples:   samples,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		state:     JobRunning,
		startedAt: s.now(),
	}
	s.jobs[job.id] = job
	s.jobOrder = append(s.jobOrder, job.id)
	s.curJob = job
	// Evict the oldest terminal jobs beyond the history bound.
	for len(s.jobOrder) > maxJobHistory {
		victim := s.jobs[s.jobOrder[0]]
		if victim == s.curJob {
			break
		}
		delete(s.jobs, s.jobOrder[0])
		s.jobOrder = s.jobOrder[1:]
	}
	return job
}

// runTrainJob is the job goroutine: it owns the whole training lifecycle
// from validation split to model install and checkpoint, and always leaves
// the server idle (curJob nil) and the job terminal on exit.
func (s *Server) runTrainJob(job *trainJob, cfg core.Config, train *samples, valFraction float64, workers int) {
	defer close(job.done)
	s.trainMetrics.RunStarted(train.Len())

	settle := func(state, errMsg string, result *TrainResult) {
		now := s.now()
		job.finish(state, errMsg, result, now)
		s.mu.Lock()
		s.curJob = nil
		s.mu.Unlock()
		outcome := "ok"
		switch state {
		case JobFailed:
			outcome = "error"
		case JobCancelled:
			outcome = "cancelled"
		}
		// The run-level counters predate cancellation and only know
		// ok/error; a cancelled run lands in "error" there, while the job
		// counters carry the distinct outcome.
		s.trainMetrics.RunFinished(state != JobSucceeded)
		s.jobMetrics.Finished(outcome, now.Sub(job.startedAt).Seconds())
	}

	fit := train
	var val dataset.SampleSource // nil, not a nil *samples: Train tests it against nil
	if valFraction > 0 && valFraction < 1 {
		tr, v, err := train.split(valFraction, cfg.Seed)
		if err != nil {
			settle(JobFailed, err.Error(), nil)
			return
		}
		fit, val = tr, v
	}
	m, err := core.NewModel(cfg, fit.Sizes())
	if err != nil {
		settle(JobFailed, err.Error(), nil)
		return
	}
	hist, err := core.Train(m, fit, val, core.TrainOptions{
		Workers: workers,
		Stop:    job.stop,
		Observer: core.EpochObserverFunc(func(e core.EpochStats) {
			s.trainMetrics.ObserveEpoch(epochUpdate(e))
			job.observeEpoch(e)
		}),
	})
	switch {
	case errors.Is(err, core.ErrCancelled):
		settle(JobCancelled, "", nil)
		return
	case err != nil:
		settle(JobFailed, err.Error(), nil)
		return
	}

	s.mu.Lock()
	installErr := s.installModelLocked(m, "train")
	var ckptErr error
	if installErr == nil && s.store != nil {
		ckptErr = s.store.SaveModel(m)
	}
	if installErr == nil {
		// The continual mode fine-tunes on corpus samples past this
		// watermark; a full run covers the whole snapshot.
		s.trainedThrough = train.Len()
	}
	s.mu.Unlock()
	if installErr != nil {
		settle(JobFailed, installErr.Error(), nil)
		return
	}
	if ckptErr != nil {
		// The model is installed and serving, but durability is broken —
		// surface that as a failed job so operators notice.
		settle(JobFailed, fmt.Sprintf("checkpoint model: %v", ckptErr), nil)
		return
	}
	settle(JobSucceeded, "", &TrainResult{
		Mode:       TrainModeFull,
		Promoted:   true,
		Epochs:     len(hist.TrainLoss),
		BestEpoch:  hist.BestEpoch,
		BestLoss:   hist.BestValLoss,
		Samples:    train.Len(),
		Parameters: m.NumParameters(),
	})
}

// cloneModel round-trips a model through its serialized form, yielding an
// independent copy whose parameters can be fine-tuned without touching the
// (immutable, possibly serving) original. The clone's version is cleared so
// the registry assigns a fresh one if it is promoted.
func cloneModel(m *core.Model) (*core.Model, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, fmt.Errorf("clone model: %w", err)
	}
	c, err := core.Load(&buf)
	if err != nil {
		return nil, fmt.Errorf("clone model: %w", err)
	}
	c.Version = ""
	return c, nil
}

// accuracyOn computes argmax accuracy of m over d using the batch engine.
func accuracyOn(m *core.Model, d dataset.SampleSource, workers int) (float64, error) {
	if d.Len() == 0 {
		return 0, fmt.Errorf("empty holdout set")
	}
	as := make([]*acfg.ACFG, d.Len())
	labels := make([]int, d.Len())
	for i := range as {
		smp, err := d.At(i)
		if err != nil {
			return 0, fmt.Errorf("holdout sample %d: %w", i, err)
		}
		as[i], labels[i] = smp.ACFG, smp.Label
	}
	probs, err := m.PredictBatch(as, workers)
	if err != nil {
		return 0, err
	}
	hits := 0
	for i, p := range probs {
		best := 0
		for c, v := range p {
			if v > p[best] {
				best = c
			}
		}
		if best == labels[i] {
			hits++
		}
	}
	return float64(hits) / float64(d.Len()), nil
}

// runContinualJob fine-tunes a clone of the serving model on the corpus
// increment since the last completed job, then gates promotion on holdout
// accuracy: the tuned model is installed only if it does not regress
// against the baseline (the clone evaluated before fine-tuning, which is
// parameter-identical to the serving model). A rejected run still succeeds
// — Result.Promoted reports the gate's verdict — and leaves the watermark
// untouched so the increment is retried by the next job.
func (s *Server) runContinualJob(job *trainJob, cfg core.Config, base *core.Model, increment, holdout *samples, snapshotLen, workers int) {
	defer close(job.done)
	s.trainMetrics.RunStarted(increment.Len())

	settle := func(state, errMsg string, result *TrainResult) {
		now := s.now()
		job.finish(state, errMsg, result, now)
		s.mu.Lock()
		s.curJob = nil
		s.mu.Unlock()
		outcome := "ok"
		switch state {
		case JobFailed:
			outcome = "error"
		case JobCancelled:
			outcome = "cancelled"
		}
		s.trainMetrics.RunFinished(state != JobSucceeded)
		s.jobMetrics.Finished(outcome, now.Sub(job.startedAt).Seconds())
	}

	m, err := cloneModel(base)
	if err != nil {
		settle(JobFailed, err.Error(), nil)
		return
	}
	// The clone inherits the base model's architecture (it must — the
	// weights match it), but the epoch budget is this job's: the training
	// loop reads it from the model config.
	m.Config.Epochs = cfg.Epochs
	baselineAcc, err := accuracyOn(m, holdout, workers)
	if err != nil {
		settle(JobFailed, fmt.Sprintf("baseline eval: %v", err), nil)
		return
	}

	hist, err := core.Train(m, increment, nil, core.TrainOptions{
		Workers: workers,
		Stop:    job.stop,
		// Keep the base model's fitted attribute statistics: refitting on
		// the (differently distributed) increment would shift every input
		// the inherited parameters were trained against.
		PreserveScaler: true,
		Observer: core.EpochObserverFunc(func(e core.EpochStats) {
			s.trainMetrics.ObserveEpoch(epochUpdate(e))
			job.observeEpoch(e)
		}),
	})
	switch {
	case errors.Is(err, core.ErrCancelled):
		settle(JobCancelled, "", nil)
		return
	case err != nil:
		settle(JobFailed, err.Error(), nil)
		return
	}
	tunedAcc, err := accuracyOn(m, holdout, workers)
	if err != nil {
		settle(JobFailed, fmt.Sprintf("holdout eval: %v", err), nil)
		return
	}

	result := &TrainResult{
		Mode:        TrainModeContinual,
		Epochs:      len(hist.TrainLoss),
		BestEpoch:   hist.BestEpoch,
		BestLoss:    hist.BestValLoss,
		Samples:     increment.Len(),
		NewSamples:  increment.Len(),
		Parameters:  m.NumParameters(),
		HoldoutAcc:  tunedAcc,
		BaselineAcc: baselineAcc,
	}
	if tunedAcc < baselineAcc {
		// Eval gate: the increment made the model worse on held-out data.
		// Keep serving the baseline and leave the watermark so the samples
		// are retried (with more company) by the next job.
		settle(JobSucceeded, "", result)
		return
	}

	s.mu.Lock()
	installErr := s.installModelLocked(m, "continual")
	var ckptErr error
	if installErr == nil && s.store != nil {
		ckptErr = s.store.SaveModel(m)
	}
	if installErr == nil {
		s.trainedThrough = snapshotLen
	}
	s.mu.Unlock()
	if installErr != nil {
		settle(JobFailed, installErr.Error(), nil)
		return
	}
	if ckptErr != nil {
		settle(JobFailed, fmt.Sprintf("checkpoint model: %v", ckptErr), nil)
		return
	}
	result.Promoted = true
	settle(JobSucceeded, "", result)
}

// handleTrain admits an asynchronous training job: it validates the
// request and corpus synchronously, then returns 202 with the job ID while
// the run proceeds in the background. Poll GET /v1/train/{id} for
// progress; DELETE /v1/train/{id} cancels cooperatively.
func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	var body trainBody
	// An empty body means "all defaults"; a malformed one is an error even
	// when the request is chunked and carries no Content-Length.
	if err := decodeBody(w, r, &body); err != nil && !errors.Is(err, errEmptyBody) {
		WriteError(w, decodeStatus(err), err)
		return
	}
	switch body.Mode {
	case "", TrainModeFull:
		body.Mode = TrainModeFull
	case TrainModeContinual:
	default:
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("unknown training mode %q (want %q or %q)", body.Mode, TrainModeFull, TrainModeContinual))
		return
	}

	s.mu.Lock()
	if s.curJob != nil {
		id := s.curJob.id
		s.mu.Unlock()
		WriteError(w, http.StatusConflict, fmt.Errorf("training already in progress (job %s)", id))
		return
	}

	if body.Mode == TrainModeContinual {
		s.admitContinualLocked(w, body)
		return
	}

	// Snapshot the corpus under the lock; train outside it so predictions
	// against the previous model keep serving.
	train := s.corpus.snapshot()
	counts := train.CountByClass()
	for i, n := range counts {
		if n < 2 {
			s.mu.Unlock()
			WriteError(w, http.StatusPreconditionFailed,
				fmt.Errorf("family %q has %d samples; need at least 2 per family", s.families[i], n))
			return
		}
	}
	cfg := s.cfgTemplate
	if body.Epochs > 0 {
		cfg.Epochs = body.Epochs
	}
	workers := s.workersLocked()
	job := s.startTrainJobLocked(TrainModeFull, cfg.Epochs, train.Len())
	s.mu.Unlock()

	s.jobMetrics.Started()
	go s.runTrainJob(job, cfg, train, body.ValFraction, workers)

	WriteJSON(w, http.StatusAccepted, job.status())
}

// admitContinualLocked validates and launches a continual fine-tuning job.
// It is called with s.mu held (no running job) and releases it on every
// path. Preconditions beyond full training's: a trained model must be
// serving, there must be new samples past the watermark, and the corpus
// must support a stratified holdout split for the eval gate.
func (s *Server) admitContinualLocked(w http.ResponseWriter, body trainBody) {
	base := s.model
	if base == nil {
		s.mu.Unlock()
		WriteError(w, http.StatusPreconditionFailed,
			fmt.Errorf("continual training needs a trained model; run a full training job first"))
		return
	}
	full := s.corpus.snapshot()
	total := full.Len()
	if s.trainedThrough >= total {
		s.mu.Unlock()
		WriteError(w, http.StatusPreconditionFailed,
			fmt.Errorf("no new samples since the last training job (corpus %d, trained through %d)", total, s.trainedThrough))
		return
	}
	increment := &samples{classes: full.classes, entries: full.entries[s.trainedThrough:]}

	cfg := s.cfgTemplate
	if body.Epochs > 0 {
		cfg.Epochs = body.Epochs
	}
	holdFrac := continualHoldoutFraction
	if body.ValFraction > 0 && body.ValFraction < 1 {
		holdFrac = body.ValFraction
	}
	// The gate's holdout is a stratified slice of the whole corpus (old and
	// new samples alike): the tuned model must not trade established
	// families for the increment's.
	_, holdout, err := full.split(holdFrac, cfg.Seed)
	if err != nil {
		s.mu.Unlock()
		WriteError(w, http.StatusPreconditionFailed, fmt.Errorf("continual holdout split: %w", err))
		return
	}
	workers := s.workersLocked()
	job := s.startTrainJobLocked(TrainModeContinual, cfg.Epochs, increment.Len())
	s.mu.Unlock()

	s.jobMetrics.Started()
	go s.runContinualJob(job, cfg, base, increment, holdout, total, workers)

	WriteJSON(w, http.StatusAccepted, job.status())
}

// handleTrainStatus serves GET /v1/train/{id}.
func (s *Server) handleTrainStatus(w http.ResponseWriter, r *http.Request) {
	job := s.lookupJob(r.PathValue("id"))
	if job == nil {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown training job %q", r.PathValue("id")))
		return
	}
	WriteJSON(w, http.StatusOK, job.status())
}

// handleTrainCancel serves DELETE /v1/train/{id}: it requests cooperative
// cancellation (202) or reports the terminal state of an already-finished
// job (200). Cancellation latency is bounded by one training batch.
func (s *Server) handleTrainCancel(w http.ResponseWriter, r *http.Request) {
	job := s.lookupJob(r.PathValue("id"))
	if job == nil {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown training job %q", r.PathValue("id")))
		return
	}
	if job.requestCancel() {
		WriteJSON(w, http.StatusAccepted, job.status())
		return
	}
	WriteJSON(w, http.StatusOK, job.status())
}

func (s *Server) lookupJob(id string) *trainJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// CancelTraining requests cancellation of the running job, if any, and
// blocks until its goroutine has exited. It is the shutdown path's hook.
func (s *Server) CancelTraining() {
	s.mu.Lock()
	job := s.curJob
	s.mu.Unlock()
	if job == nil {
		return
	}
	job.requestCancel()
	<-job.done
}
