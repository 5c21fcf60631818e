package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acfg"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// maxGradShards fixes the fan-in of the gradient tree reduction. A batch is
// always decomposed into min(len(batch), maxGradShards) contiguous shards —
// a function of the batch length alone, never of the worker count or the
// machine — and shard buffers are reduced in a fixed binary-tree order. The
// gradient sum that reaches the optimizer is therefore bit-identical for
// every TrainOptions.Workers value, which is the determinism contract the
// golden test in parallel_test.go enforces.
const maxGradShards = 8

// batchOp selects the per-shard work the engine dispatches. The engine
// carries its inputs in fields rather than closures so a steady-state batch
// captures nothing and allocates nothing.
type batchOp int

const (
	opTrain batchOp = iota
	opEval
	opPredict
)

// sampleTask is one unit of per-sample work handed to a worker replica.
type sampleTask struct {
	a     *acfg.ACFG
	label int
	seed  int64 // dropout mask seed (training only)
}

// sampleResult is one sample's contribution to the epoch statistics,
// written to a position-indexed slot so aggregation order is fixed.
type sampleResult struct {
	loss float64
	hit  bool
}

// ParallelBatch shards per-sample model execution across a pool of worker
// replicas of one Weights. The engine guarantees parallel ≡ serial: for a
// fixed seed, training losses and final parameters are bit-identical at any
// worker count, because
//
//   - every per-sample forward/backward is a pure function of the shared
//     weights and the sample (dropout masks are seeded per sample, not
//     drawn from a shared stream);
//   - gradients accumulate into per-shard buffers whose decomposition
//     depends only on the batch length (maxGradShards);
//   - shard buffers reduce into the trainer's gradients in a fixed
//     binary-tree order (reduceShards).
//
// A ParallelBatch is not itself safe for concurrent use; distinct engines,
// over the same Weights or not, may run concurrently as long as nothing
// steps the weights they read. Each replica owns a private workspace and
// propagation operator, so per-sample execution stays allocation-free
// without any cross-worker sharing.
type ParallelBatch struct {
	replicas []*Model

	// shardGrads[s][p] buffers shard s's gradient sum for parameter p;
	// nil until the first TrainBatch.
	shardGrads [][]*tensor.Matrix

	// Per-batch dispatch state, reused across calls (one batch at a time).
	op      batchOp
	tasks   []sampleTask
	results []sampleResult
	out     [][]float64
	ranges  [][2]int
	errs    []error
	busy    obs.BusyMeter
	failed  atomic.Bool
	next    atomic.Int64
}

// NewParallelBatch builds an engine over workers new replicas of w (values
// < 1 are clamped to 1; values above maxGradShards gain nothing for
// training since shards are the unit of work).
func NewParallelBatch(w *Weights, workers int) *ParallelBatch {
	replicas := make([]*Model, max(workers, 1))
	for i := range replicas {
		replicas[i] = w.NewReplica()
	}
	return &ParallelBatch{replicas: replicas}
}

// allocShardGrads builds the maxGradShards parameter-sized gradient buffer
// sets. Only training needs them, so the first TrainBatch pays for them and
// a predict-only engine never does.
func (e *ParallelBatch) allocShardGrads() {
	e.shardGrads = make([][]*tensor.Matrix, maxGradShards)
	for s := range e.shardGrads {
		bufs := make([]*tensor.Matrix, len(e.replicas[0].values))
		for pi, v := range e.replicas[0].values {
			bufs[pi] = tensor.New(v.Rows, v.Cols)
		}
		e.shardGrads[s] = bufs
	}
}

// shardRanges splits n items into at most shards contiguous [start, end)
// ranges, front-loading the remainder so sizes differ by at most one. The
// decomposition is a pure function of (n, shards).
func shardRanges(n, shards int) [][2]int {
	out := make([][2]int, 0, shards)
	return appendShardRanges(out, n, shards)
}

// appendShardRanges is shardRanges into a reused backing slice.
func appendShardRanges(out [][2]int, n, shards int) [][2]int {
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	q, r := n/shards, n%shards
	start := 0
	for s := 0; s < shards; s++ {
		size := q
		if s < r {
			size++
		}
		out = append(out, [2]int{start, start + size})
		start += size
	}
	return out
}

// TrainBatch runs forward/backward for one mini-batch, leaving the
// deterministically reduced gradient SUM (not mean — see stepBatch) in the
// Grad of grads, the trainer's parameters over the same weights, and
// per-sample losses/hits in results, which must have len(tasks) slots. On
// any worker error the pool drains, grads are left as they were, and the
// first failing shard's error (lowest shard index) is returned.
func (e *ParallelBatch) TrainBatch(grads []*nn.Param, tasks []sampleTask, results []sampleResult) error {
	wall := obs.StartTimer()
	if e.shardGrads == nil {
		e.allocShardGrads()
	}
	e.op, e.tasks, e.results = opTrain, tasks, results
	e.ranges = appendShardRanges(e.ranges[:0], len(tasks), maxGradShards)
	if err := e.runShards(len(e.ranges)); err != nil {
		return err
	}
	reduceShards(grads, e.shardGrads, len(e.ranges))
	e.observe(obs.PhaseTrain, len(tasks), wall.Elapsed())
	return nil
}

// runTrainShard executes one shard on one replica: per-sample seeded
// forward, loss, backward; then flushes the replica's accumulated gradients
// into the shard's buffer and zeroes them so the replica is clean for its
// next shard. Panics (malformed samples reaching the numeric core) are
// converted to errors.
func (e *ParallelBatch) runTrainShard(rep *Model, si int) (err error) {
	defer discardGradsOnErr(rep, &err)
	defer recoverShard(&err, "batch shard", si)
	r := e.ranges[si]
	for i := r[0]; i < r[1]; i++ {
		t := e.tasks[i]
		loss, hit := rep.TrainStep(t.a, t.label, t.seed)
		e.results[i] = sampleResult{loss: loss, hit: hit}
	}
	for pi, p := range rep.params {
		copy(e.shardGrads[si][pi].Data, p.Grad.Data)
		p.Grad.Zero()
	}
	return nil
}

// recoverShard converts a panic in a worker shard into an error. It must be
// deferred directly (recover only takes effect when called by the deferred
// function itself).
func recoverShard(errp *error, kind string, si int) {
	if p := recover(); p != nil {
		*errp = fmt.Errorf("core: parallel %s %d: %v", kind, si, p)
	}
}

// discardGradsOnErr zeroes a replica's partial gradients when its shard
// failed, so a failed batch leaves no residue. Deferred before recoverShard,
// so it observes the recovered error.
func discardGradsOnErr(rep *Model, errp *error) {
	if *errp != nil {
		for _, pp := range rep.params {
			pp.Grad.Zero()
		}
	}
}

// EvalBatch computes per-sample inference losses and argmax hits (dropout
// off, no gradients) into results, which must have len(tasks) slots. The
// per-sample numbers are identical to a serial Model.Predict sweep.
func (e *ParallelBatch) EvalBatch(tasks []sampleTask, results []sampleResult) error {
	wall := obs.StartTimer()
	e.op, e.tasks, e.results = opEval, tasks, results
	if err := e.runShards(len(tasks)); err != nil {
		return err
	}
	e.observe(obs.PhaseValidate, len(tasks), wall.Elapsed())
	return nil
}

// runEvalSample scores sample i on one replica. The gradient-free phases
// hand out one sample per shard: every sample writes only its own slot, so
// the granularity decides load balance alone, and a batch of two keeps two
// workers busy.
func (e *ParallelBatch) runEvalSample(rep *Model, i int) (err error) {
	defer recoverShard(&err, "eval sample", i)
	t := e.tasks[i]
	logits := rep.forwardLogits(t.a, false)
	nn.SoftmaxInto(rep.probs, logits)
	e.results[i] = sampleResult{loss: nn.NLLOfProbs(rep.probs, t.label), hit: nn.ArgMax(rep.probs) == t.label}
	return nil
}

// predictAll fills out[i] with the class-probability vector of tasks[i].
// Slots whose existing capacity matches are reused; nil slots are allocated.
func (e *ParallelBatch) predictAll(tasks []sampleTask, out [][]float64) error {
	wall := obs.StartTimer()
	e.op, e.tasks, e.out = opPredict, tasks, out
	if err := e.runShards(len(tasks)); err != nil {
		return err
	}
	e.observe(obs.PhasePredict, len(tasks), wall.Elapsed())
	return nil
}

// runPredictSample classifies sample i on one replica (one sample per shard,
// as runEvalSample).
func (e *ParallelBatch) runPredictSample(rep *Model, i int) (err error) {
	defer recoverShard(&err, "predict sample", i)
	logits := rep.forwardLogits(e.tasks[i].a, false)
	if len(e.out[i]) != len(logits) {
		e.out[i] = make([]float64, len(logits))
	}
	nn.SoftmaxInto(e.out[i], logits)
	return nil
}

// runOne dispatches one shard to one worker replica, accounting its busy
// time.
func (e *ParallelBatch) runOne(w, si int) error {
	sw := obs.StartTimer()
	var err error
	switch e.op {
	case opTrain:
		err = e.runTrainShard(e.replicas[w], si)
	case opEval:
		err = e.runEvalSample(e.replicas[w], si)
	default:
		err = e.runPredictSample(e.replicas[w], si)
	}
	e.busy.Add(sw.Elapsed())
	return err
}

// runShards distributes shard indices 0..n-1 over the worker pool and waits
// for completion. Shard→worker assignment is dynamic (it never influences
// results: every shard writes only its own buffers/slots). On error the
// remaining shards are skipped so the pool shuts down promptly; the error
// of the lowest-indexed failing shard is returned, making error selection
// deterministic too.
func (e *ParallelBatch) runShards(n int) error {
	e.busy.Reset()
	workers := min(len(e.replicas), n)
	if cap(e.errs) < n {
		e.errs = make([]error, n)
	}
	e.errs = e.errs[:n]
	for i := range e.errs {
		e.errs[i] = nil
	}
	if workers <= 1 {
		for si := 0; si < n; si++ {
			if err := e.runOne(0, si); err != nil {
				return err
			}
		}
		return nil
	}
	e.failed.Store(false)
	e.next.Store(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go e.shardWorker(&wg, w, n)
	}
	wg.Wait()
	for _, err := range e.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shardWorker pulls shard indices until the supply is exhausted or a shard
// fails.
func (e *ParallelBatch) shardWorker(wg *sync.WaitGroup, w, n int) {
	defer wg.Done()
	for {
		si := int(e.next.Add(1)) - 1
		if si >= n || e.failed.Load() {
			return
		}
		if err := e.runOne(w, si); err != nil {
			e.errs[si] = err
			e.failed.Store(true)
			return
		}
	}
}

// observe publishes the batch's engine telemetry plus the summed replica
// workspace footprint.
func (e *ParallelBatch) observe(phase string, samples int, wall time.Duration) {
	obs.ObserveParallelBatch(phase, len(e.replicas), samples, wall, e.busy.Total())
	var checkouts, bytes uint64
	for _, r := range e.replicas {
		s := r.WorkspaceStats()
		checkouts += s.Checkouts
		bytes += s.Bytes
	}
	obs.ObserveWorkspace(checkouts, bytes)
}

// reduceShards folds the first n shard gradient buffers into params' Grad
// in a fixed binary-tree order — pairs at stride 1, then 2, 4, … — whose
// shape depends only on n. Floating-point addition is not associative, so
// fixing the tree (rather than, say, summing shards in worker-completion
// order) is what makes the reduced gradient independent of scheduling.
// After the call the shard buffers hold reduction scratch and must be
// considered garbage until the next TrainBatch overwrites them.
func reduceShards(params []*nn.Param, shards [][]*tensor.Matrix, n int) {
	for stride := 1; stride < n; stride *= 2 {
		for i := 0; i+stride < n; i += 2 * stride {
			for pi := range params {
				dst, src := shards[i][pi].Data, shards[i+stride][pi].Data
				for k, v := range src {
					dst[k] += v
				}
			}
		}
	}
	for pi, p := range params {
		copy(p.Grad.Data, shards[0][pi].Data)
	}
}

// Predict classifies as on the engine's replicas, returning one fresh
// probability vector per input (in input order), identical to calling
// Predict serially on each sample.
func (e *ParallelBatch) Predict(as []*acfg.ACFG) ([][]float64, error) {
	tasks := make([]sampleTask, len(as))
	for i, a := range as {
		tasks[i].a = a
	}
	out := make([][]float64, len(as))
	if err := e.predictAll(tasks, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictBatch classifies many ACFGs concurrently, returning one
// probability vector per input (in input order). workers < 1 selects
// runtime.GOMAXPROCS. Results are identical to calling Predict serially on
// each sample. It runs on m and workers − 1 replicas it builds for the call
// and drops on return, so a one-shot caller pays for the replicas and a
// caller that predicts batch after batch keeps a ParallelBatch instead.
func (m *Model) PredictBatch(as []*acfg.ACFG, workers int) ([][]float64, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &ParallelBatch{replicas: []*Model{m}}
	for len(e.replicas) < workers {
		e.replicas = append(e.replicas, m.NewReplica())
	}
	return e.Predict(as)
}

// sampleSeed derives the dropout seed for one (epoch, sample) pair from the
// run seed via a splitmix64-style mix, so every sample owns an independent,
// order-free mask stream.
func sampleSeed(base int64, epoch, idx int) int64 {
	x := uint64(base) + 0x9E3779B97F4A7C15*uint64(epoch+1) + 0xBF58476D1CE4E5B9*uint64(idx+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}
