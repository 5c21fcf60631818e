package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// History records per-epoch training and validation losses.
type History struct {
	TrainLoss []float64
	ValLoss   []float64
	// BestEpoch is the epoch with minimum validation loss (or training
	// loss when no validation set was supplied).
	BestEpoch int
	// BestValLoss is the minimum observed validation loss.
	BestValLoss float64
}

// EpochStats is the telemetry snapshot handed to an EpochObserver after
// every completed epoch.
type EpochStats struct {
	// Epoch is the zero-based epoch index.
	Epoch int
	// TrainLoss and TrainAcc are the mean NLL and argmax accuracy over the
	// training set for this epoch.
	TrainLoss float64
	TrainAcc  float64
	// HasVal reports whether a validation set was supplied; ValLoss and
	// ValAcc are meaningful only when it is true.
	HasVal  bool
	ValLoss float64
	ValAcc  float64
	// LearningRate is the optimizer's rate after this epoch's plateau
	// schedule update.
	LearningRate float64
	// Duration is the wall-clock cost of the epoch (both passes).
	Duration time.Duration
	// BestEpoch is the epoch with the lowest monitored loss so far;
	// Improved reports whether this epoch set it.
	BestEpoch int
	Improved  bool
}

// EpochObserver receives per-epoch training telemetry. Implementations
// must be fast (they run on the training loop) and must not retain the
// stats struct past the call.
type EpochObserver interface {
	ObserveEpoch(EpochStats)
}

// EpochObserverFunc adapts a function to the EpochObserver interface.
type EpochObserverFunc func(EpochStats)

// ObserveEpoch calls f.
func (f EpochObserverFunc) ObserveEpoch(s EpochStats) { f(s) }

// ErrCancelled is returned by Train when the run was abandoned because
// TrainOptions.Stop was signalled. Callers distinguish it from genuine
// failures with errors.Is.
var ErrCancelled = errors.New("core: training cancelled")

// TrainOptions tunes the training loop beyond the model Config.
type TrainOptions struct {
	// Observer, when non-nil, receives an EpochStats snapshot after every
	// epoch — the hook live-progress output and obs.TrainingMetrics hang
	// off of.
	Observer EpochObserver
	// Workers sets the data-parallel worker count for batch execution
	// (forward/backward sharding and validation sweeps). Values below 2
	// run serially. Training is bit-identical at every worker count: the
	// batch engine decomposes batches into worker-independent shards and
	// reduces gradients in a fixed tree order (see ParallelBatch).
	Workers int
	// PreserveScaler keeps the model's already-fitted attribute scaler
	// instead of refitting on the training set. Continual fine-tuning
	// depends on this: the increment's statistics would shift every input
	// the frozen layers were trained against, so the base model's scaler
	// must keep applying verbatim. It is ignored when the model has no
	// scaler yet.
	PreserveScaler bool
	// Stop, when non-nil, requests cooperative cancellation: it is polled
	// before every mini-batch, and once it is closed (or receives a value)
	// Train abandons the run and returns ErrCancelled. Cancellation latency
	// is therefore bounded by one batch. A nil channel disables the check,
	// and an unsignalled channel never alters results — the poll reads no
	// entropy and no clock, preserving the bit-determinism contract.
	Stop <-chan struct{}
}

// stopRequested reports whether the cancellation channel has been
// signalled; a nil channel never stops.
func stopRequested(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// TrainSession is the reusable steady state of the training loop: the
// engine, optimizer, shuffled order, task buffers and epoch counter behind
// Train. Construction performs the one-time work (scaler fit, replica pool);
// each RunEpoch then executes one full pass over the training source without
// allocating — the property the alloc-pinning tests and BenchmarkTrainEpoch
// enforce at Workers ≤ 1.
//
// Samples are pulled from a dataset.SampleSource one mini-batch at a time,
// so a run over a disk-backed corpus holds at most BatchSize decoded samples
// instead of the whole dataset; a resident *dataset.Dataset is the source
// whose At never fails. Results depend only on the sample sequence, never on
// what backs it (source_test.go trains from segments, copies and the
// resident dataset and requires identical bytes).
//
// A session drives one model and is not safe for concurrent use.
type TrainSession struct {
	m       *Model
	src     dataset.SampleSource
	engine  *ParallelBatch
	opt     nn.Optimizer
	rng     *rand.Rand
	order   []int
	swap    func(i, j int) // hoisted shuffle closure: allocated once, reused every epoch
	tasks   []sampleTask
	results []sampleResult
	stop    <-chan struct{}
	epoch   int
}

// NewTrainSession fits the attribute scaler over src (or keeps the model's
// under opts.PreserveScaler), builds the data-parallel engine with
// opts.Workers replicas, and prepares the Adam optimizer and batch-sized
// buffers. The model is ready for RunEpoch calls on return.
func NewTrainSession(m *Model, src dataset.SampleSource, opts TrainOptions) (*TrainSession, error) {
	if src.Len() == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	cfg := m.Config
	if !(opts.PreserveScaler && m.Scaler() != nil) {
		sc, err := FitScaler(src)
		if err != nil {
			return nil, err
		}
		m.SetScaler(sc)
	}

	engine, err := NewParallelBatch(m, opts.Workers)
	if err != nil {
		return nil, err
	}
	s := &TrainSession{
		m:       m,
		src:     src,
		engine:  engine,
		opt:     nn.NewAdam(m.Params(), cfg.LearningRate, cfg.WeightDecay),
		rng:     rand.New(rand.NewSource(cfg.Seed + 1)),
		order:   make([]int, src.Len()),
		tasks:   make([]sampleTask, 0, cfg.BatchSize),
		results: make([]sampleResult, cfg.BatchSize),
		stop:    opts.Stop,
	}
	for i := range s.order {
		s.order[i] = i
	}
	s.swap = func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] }
	return s, nil
}

// RunEpoch executes one full shuffled pass of mini-batch training, fetching
// each sample from the source as its batch comes up, and returns the epoch's
// mean NLL and argmax accuracy over the training set. Results are
// bit-identical at every worker count; cancellation via TrainOptions.Stop
// surfaces as ErrCancelled. A source error abandons the epoch before the
// failing batch runs — no gradient is accumulated and no step taken for it —
// and is returned wrapped.
func (s *TrainSession) RunEpoch() (trainLoss, trainAcc float64, err error) {
	cfg := s.m.Config
	s.rng.Shuffle(len(s.order), s.swap)
	trainHits := 0
	for start := 0; start < len(s.order); start += cfg.BatchSize {
		if stopRequested(s.stop) {
			return 0, 0, ErrCancelled
		}
		end := start + cfg.BatchSize
		if end > len(s.order) {
			end = len(s.order)
		}
		s.tasks = s.tasks[:0]
		for _, idx := range s.order[start:end] {
			smp, err := s.src.At(idx)
			if err != nil {
				return 0, 0, fmt.Errorf("core: training sample %d: %w", idx, err)
			}
			s.tasks = append(s.tasks, sampleTask{
				a:     smp.ACFG,
				label: smp.Label,
				// The dropout seed keys on the source index, not the batch
				// position, so masks survive reshuffling intact.
				seed: sampleSeed(cfg.Seed, s.epoch, idx),
			})
		}
		batch := s.results[:len(s.tasks)]
		if err := s.engine.TrainBatch(s.tasks, batch); err != nil {
			return 0, 0, err
		}
		// Aggregate in slot order — fixed regardless of which worker
		// produced which result.
		for _, r := range batch {
			trainLoss += r.loss
			if r.hit {
				trainHits++
			}
		}
		stepBatch(s.opt, end-start)
	}
	s.epoch++
	n := float64(s.src.Len())
	return trainLoss / n, float64(trainHits) / n, nil
}

// Train fits the model on train, monitoring val (which may be nil). It fits
// the attribute scaler, runs mini-batch Adam with the paper's
// decay-on-plateau schedule, and restores the parameters of the epoch with
// the lowest validation loss (the paper's model-selection criterion).
// train and val may be resident *dataset.Datasets or any other
// SampleSource, such as the server's corpus index decoding each sample from
// its segment file. val is fetched once, before the first epoch, and its
// samples stay live for the run: every epoch evaluates all of them in one
// sweep.
//
// Batch execution is data-parallel across opts.Workers goroutines and
// deterministic: for a fixed Config.Seed the loss curves and final
// parameters are bit-identical at every worker count (see ParallelBatch).
func Train(m *Model, train, val dataset.SampleSource, opts TrainOptions) (*History, error) {
	sess, err := NewTrainSession(m, train, opts)
	if err != nil {
		return nil, err
	}
	cfg := m.Config
	engine, opt := sess.engine, sess.opt
	sched := nn.NewPlateauScheduler(opt)

	hist := &History{BestValLoss: -1}
	var best []*tensor.Matrix

	// Validation tasks are fixed across epochs; build them once.
	var valTasks []sampleTask
	var valResults []sampleResult
	if val != nil && val.Len() > 0 {
		valTasks = make([]sampleTask, val.Len())
		valResults = make([]sampleResult, val.Len())
		for i := range valTasks {
			s, err := val.At(i)
			if err != nil {
				return nil, fmt.Errorf("core: validation sample %d: %w", i, err)
			}
			valTasks[i] = sampleTask{a: s.ACFG, label: s.Label}
		}
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochTimer := obs.StartTimer()
		trainLoss, trainAcc, err := sess.RunEpoch()
		if err != nil {
			return nil, err
		}
		hist.TrainLoss = append(hist.TrainLoss, trainLoss)

		monitor := trainLoss
		valLoss, valAcc := 0.0, 0.0
		hasVal := valTasks != nil
		if hasVal {
			if err := engine.EvalBatch(valTasks, valResults); err != nil {
				return nil, err
			}
			valHits := 0
			for _, r := range valResults {
				valLoss += r.loss
				if r.hit {
					valHits++
				}
			}
			valLoss /= float64(val.Len())
			valAcc = float64(valHits) / float64(val.Len())
			hist.ValLoss = append(hist.ValLoss, valLoss)
			monitor = valLoss
		}
		sched.Observe(monitor)

		improved := hist.BestValLoss < 0 || monitor < hist.BestValLoss
		if improved {
			hist.BestValLoss = monitor
			hist.BestEpoch = epoch
			best = snapshotParams(m.Params())
		}

		if opts.Observer != nil {
			opts.Observer.ObserveEpoch(EpochStats{
				Epoch:        epoch,
				TrainLoss:    trainLoss,
				TrainAcc:     trainAcc,
				HasVal:       hasVal,
				ValLoss:      valLoss,
				ValAcc:       valAcc,
				LearningRate: opt.LR(),
				Duration:     epochTimer.Elapsed(),
				BestEpoch:    hist.BestEpoch,
				Improved:     improved,
			})
		}
	}
	if best != nil {
		restoreParams(m.Params(), best)
	}
	return hist, nil
}

// stepBatch applies one optimizer update for a batch of n samples. The
// gradient-averaging contract: Param.Grad holds the SUM of per-sample
// gradients (the parallel engine's tree reduction preserves the sum and
// never pre-averages shards) and opt.Step(n) scales by 1/n. The effective
// learning rate therefore depends only on the batch size — never on how
// the batch was sharded across workers or the order shards were reduced
// in. optim_test.go pins this contract down.
func stepBatch(opt nn.Optimizer, n int) {
	opt.Step(n)
}

func snapshotParams(ps []*nn.Param) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(ps))
	for i, p := range ps {
		out[i] = p.Value.Clone()
	}
	return out
}

func restoreParams(ps []*nn.Param, snap []*tensor.Matrix) {
	for i, p := range ps {
		copy(p.Value.Data, snap[i].Data)
	}
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
