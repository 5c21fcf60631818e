package service

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/obs"
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

// err is nil for a succeeded job and describes a cancelled or failed one.
func (s *TrainJobStatus) err() error {
	switch s.Status {
	case JobSucceeded:
		return nil
	case JobCancelled:
		return fmt.Errorf("training job %s was cancelled", s.Job)
	}
	return fmt.Errorf("training job %s failed: %s", s.Job, s.Error)
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

// startTrainJobLocked registers a new running job as the server's current
// one (callers hold s.mu and have already rejected a concurrent run) and
// in the history ring.
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

// trainRun is a job's plan, fixed at admission. Full and continual runs
// differ only in these values: a full run trains a fresh model on the
// corpus snapshot (less an optional validation split) and installs it; a
// continual run fine-tunes a clone of the serving model on the samples past
// the watermark, keeping its scaler, and installs the result only if its
// accuracy on a holdout of the whole corpus does not regress.
type trainRun struct {
	cfg      core.Config
	base     *core.Weights // model to fine-tune; nil trains a fresh one
	fit, val *samples      // val is nil without a validation split
	holdout  *samples      // eval gate's holdout; nil installs unconditionally
	through  int           // corpus length trainedThrough moves to on install
	source   string        // registry source tag of the installed model
	workers  int
}

// admitTrain validates a training request against the corpus and the
// serving model and, once it is admitted, starts its job. A refusal comes
// with the HTTP status that answers it: 400 for an unknown mode, 409 while
// another job runs, 412 when the corpus or the serving model cannot support
// the run. POST /v1/train and Train both admit through it.
func (s *Server) admitTrain(body trainBody) (*trainJob, int, error) {
	switch body.Mode {
	case "", TrainModeFull:
		body.Mode = TrainModeFull
	case TrainModeContinual:
	default:
		return nil, http.StatusBadRequest,
			fmt.Errorf("unknown training mode %q (want %q or %q)", body.Mode, TrainModeFull, TrainModeContinual)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.curJob != nil {
		return nil, http.StatusConflict, fmt.Errorf("training already in progress (job %s)", s.curJob.id)
	}
	// Snapshot the corpus under the lock; train outside it so predictions
	// against the previous model keep serving.
	snap := s.corpus.snapshot()
	run := trainRun{cfg: s.cfgTemplate, fit: snap, through: snap.Len(), source: "train", workers: s.workersLocked()}
	if body.Epochs > 0 {
		run.cfg.Epochs = body.Epochs
	}
	valFraction := body.ValFraction
	if valFraction <= 0 || valFraction >= 1 {
		valFraction = 0
	}
	n := snap.Len() // the job's sample count: the whole snapshot, or the increment
	if body.Mode == TrainModeFull {
		for i, c := range snap.CountByClass() {
			if c < 2 {
				return nil, http.StatusPreconditionFailed,
					fmt.Errorf("family %q has %d samples; need at least 2 per family", s.families[i], c)
			}
		}
		if valFraction > 0 {
			var err error
			if run.fit, run.val, err = snap.split(valFraction, run.cfg.Seed); err != nil {
				return nil, http.StatusPreconditionFailed, fmt.Errorf("validation split: %w", err)
			}
		}
	} else {
		if s.model == nil {
			return nil, http.StatusPreconditionFailed,
				fmt.Errorf("continual training needs a trained model; run a full training job first")
		}
		if s.trainedThrough >= snap.Len() {
			return nil, http.StatusPreconditionFailed,
				fmt.Errorf("no new samples since the last training job (corpus %d, trained through %d)", snap.Len(), s.trainedThrough)
		}
		if valFraction == 0 {
			valFraction = continualHoldoutFraction
		}
		// The gate's holdout is a stratified slice of the whole corpus (old
		// and new samples alike): the tuned model must not trade
		// established families for the increment's.
		_, holdout, err := snap.split(valFraction, run.cfg.Seed)
		if err != nil {
			return nil, http.StatusPreconditionFailed, fmt.Errorf("continual holdout split: %w", err)
		}
		run.base, run.holdout, run.source = s.model, holdout, TrainModeContinual
		run.fit = &samples{classes: snap.classes, entries: snap.entries[s.trainedThrough:]}
		n = run.fit.Len()
	}
	job := s.startTrainJobLocked(body.Mode, run.cfg.Epochs, n)
	s.trainMetrics.JobStarted(n)
	go s.runTrainJob(job, run)
	return job, http.StatusAccepted, nil
}

// runTrainJob is the job goroutine. It trains, releases the server (curJob
// nil) and records the outcome before the job turns terminal, so a client
// that sees a terminal status finds the server idle and the job counted.
func (s *Server) runTrainJob(job *trainJob, run trainRun) {
	defer close(job.done)
	result, err := s.fit(job, run)
	state, outcome, errMsg := JobSucceeded, "ok", ""
	if errors.Is(err, core.ErrCancelled) {
		state, outcome = JobCancelled, "cancelled"
	} else if err != nil {
		state, outcome, errMsg = JobFailed, "error", err.Error()
	}
	now := s.now()
	s.mu.Lock()
	s.curJob = nil
	s.trainMetrics.JobFinished(outcome, now.Sub(job.startedAt))
	s.mu.Unlock()
	job.finish(state, errMsg, result, now)
}

// fit executes run: it builds the starting model, trains it, applies the
// eval gate, and installs and checkpoints a model that passes. It returns
// the job's result, or the error that ends the job (core.ErrCancelled for
// a cancelled one). A cancelled or failed run leaves the serving model and
// the watermark as they were.
func (s *Server) fit(job *trainJob, run trainRun) (*TrainResult, error) {
	m := run.base
	var err error
	if m == nil {
		if m, err = core.NewWeights(run.cfg, run.fit.Sizes()); err != nil {
			return nil, err
		}
	} else {
		// A deep copy, so tuning it leaves the serving version as it was,
		// with a fresh version to come from the registry. It inherits the
		// base model's architecture (it must — the weights match it), but
		// the epoch budget is this job's: training reads it from the config.
		m = m.Clone()
		m.Version, m.Config.Epochs = "", run.cfg.Epochs
	}
	res := &TrainResult{Mode: job.mode, Samples: job.samples}
	if run.holdout != nil {
		res.NewSamples = job.samples
		// The clone is parameter-identical to the serving model: its
		// accuracy is the baseline the tuned model must not fall below.
		if res.BaselineAcc, err = accuracyOn(m, run.holdout, run.workers); err != nil {
			return nil, fmt.Errorf("baseline eval: %w", err)
		}
	}
	var val dataset.SampleSource // nil, not a nil *samples: Train tests it against nil
	if run.val != nil {
		val = run.val
	}
	hist, err := core.Train(m, run.fit, val, core.TrainOptions{
		Workers: run.workers,
		Stop:    job.stop,
		// A fine-tune keeps the base model's fitted attribute statistics:
		// refitting on the (differently distributed) increment would shift
		// every input the inherited parameters were trained against.
		PreserveScaler: run.base != nil,
		Observer: core.EpochObserverFunc(func(e core.EpochStats) {
			s.trainMetrics.ObserveEpoch(epochUpdate(e))
			job.observeEpoch(e)
		}),
	})
	if err != nil {
		return nil, err
	}
	res.Epochs, res.BestEpoch, res.BestLoss = len(hist.TrainLoss), hist.BestEpoch, hist.BestValLoss
	res.Parameters = m.NumParameters()
	if run.holdout != nil {
		if res.HoldoutAcc, err = accuracyOn(m, run.holdout, run.workers); err != nil {
			return nil, fmt.Errorf("holdout eval: %w", err)
		}
		if res.HoldoutAcc < res.BaselineAcc {
			// Eval gate: the increment made the model worse on held-out
			// data. Keep serving the baseline and leave the watermark so
			// the samples are retried (with more company) by the next job.
			return res, nil
		}
	}

	s.mu.Lock()
	s.installModelLocked(m, run.source)
	s.trainedThrough = run.through
	var ckptErr error
	if s.store != nil {
		ckptErr = s.store.SaveModel(m)
	}
	s.mu.Unlock()
	if ckptErr != nil {
		// The model is installed and serving, but durability is broken —
		// surface that as a failed job so operators notice.
		return nil, fmt.Errorf("checkpoint model: %w", ckptErr)
	}
	res.Promoted = true
	return res, nil
}

// epochUpdate bridges core's per-epoch stats to the obs telemetry struct
// (obs cannot import core, being dependency-free).
func epochUpdate(e core.EpochStats) obs.EpochUpdate {
	return obs.EpochUpdate{
		Epoch:        e.Epoch,
		TrainLoss:    e.TrainLoss,
		TrainAcc:     e.TrainAcc,
		HasVal:       e.HasVal,
		ValLoss:      e.ValLoss,
		ValAcc:       e.ValAcc,
		LearningRate: e.LearningRate,
		Duration:     e.Duration,
		BestEpoch:    e.BestEpoch,
	}
}

// accuracyOn computes argmax accuracy of m over d using the batch engine.
func accuracyOn(m *core.Weights, d dataset.SampleSource, workers int) (float64, error) {
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
	probs, err := core.NewParallelBatch(m, workers).Predict(as)
	if err != nil {
		return 0, err
	}
	hits := 0
	for i, p := range probs {
		if nn.ArgMax(p) == labels[i] {
			hits++
		}
	}
	return float64(hits) / float64(d.Len()), nil
}

// Train runs one training job in process and blocks until it is terminal:
// POST /v1/train {"mode","epochs","valFraction"} without the HTTP round
// trip — the same admission, runner, job history and metrics — for callers
// that train before they serve, like magic-server's demo seed. A refused
// request returns only the error; a job that ends other than succeeded
// returns its final status and an error describing it.
func (s *Server) Train(mode string, epochs int, valFraction float64) (*TrainJobStatus, error) {
	job, _, err := s.admitTrain(trainBody{Mode: mode, Epochs: epochs, ValFraction: valFraction})
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	<-job.done
	st := job.status()
	if err := st.err(); err != nil {
		return st, fmt.Errorf("service: %w", err)
	}
	return st, nil
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
	job, status, err := s.admitTrain(body)
	if err != nil {
		WriteError(w, status, err)
		return
	}
	WriteJSON(w, status, job.status())
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
