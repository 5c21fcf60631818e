package service

import (
	"context"
	"sync"
	"time"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/obs"
)

// Default admission-queue tuning: a request waits at most batchMaxWait for
// companions, and a batch never exceeds batchMaxSize samples. The window
// is small enough to be invisible next to a single inference, while under
// concurrent load it coalesces requests into one PredictBatch sweep over
// the replica pool instead of N independent pool checkouts.
const (
	DefaultBatchMaxSize = 32
	DefaultBatchMaxWait = 4 * time.Millisecond
)

// pendingPredict is one request parked in the admission queue. The leader
// fills probs/err and closes done; an abandoning waiter (context expiry)
// simply stops listening — the leader's writes race with nobody because
// the waiter never reads after abandoning.
type pendingPredict struct {
	a     *acfg.ACFG
	probs []float64
	err   error
	done  chan struct{}
}

// batcher is the server-side admission queue that coalesces concurrent
// predictions into batches for Model.PredictBatch. It is leaderless in the
// steady state: no goroutine exists while the queue is idle, so a batcher
// belonging to a demoted model version costs nothing and never needs a
// shutdown handshake (in-flight requests that captured the old serving
// snapshot just drain through it).
//
// Protocol: the first request to find no leader becomes the leader. It
// waits up to maxWait (cut short when the batch fills to maxSize), then
// collects up to maxSize pending requests, runs them as one PredictBatch,
// and delivers the results. If more requests queued up meanwhile, the
// leader hands the remainder to a continuation goroutine before returning,
// so no request is ever stranded. Batched execution is bit-identical to
// the per-request path: PredictBatch guarantees results equal to calling
// Predict serially on each sample.
type batcher struct {
	model   *core.Model
	workers int
	maxSize int
	maxWait time.Duration
	metrics *obs.ServingMetrics

	mu      sync.Mutex // guards pending and leading
	pending []*pendingPredict
	leading bool
	full    chan struct{} // capacity 1: pending reached maxSize
}

// newBatcher builds an admission queue over m. maxSize < 1 selects
// DefaultBatchMaxSize; maxWait < 0 selects DefaultBatchMaxWait, and 0
// disables the wait window (requests still flow through PredictBatch, so
// the serving numerics do not depend on the batching configuration).
func newBatcher(m *core.Model, workers, maxSize int, maxWait time.Duration, sm *obs.ServingMetrics) *batcher {
	if maxSize < 1 {
		maxSize = DefaultBatchMaxSize
	}
	if maxWait < 0 {
		maxWait = DefaultBatchMaxWait
	}
	return &batcher{
		model:   m,
		workers: workers,
		maxSize: maxSize,
		maxWait: maxWait,
		metrics: sm,
		full:    make(chan struct{}, 1),
	}
}

// predict enqueues one sample and blocks until its batch has run or ctx
// expires. The returned slice is owned by the caller.
func (b *batcher) predict(ctx context.Context, a *acfg.ACFG) ([]float64, error) {
	p := &pendingPredict{a: a, done: make(chan struct{})}
	b.mu.Lock()
	b.pending = append(b.pending, p)
	if b.leading {
		// A leader is already collecting; signal it when we complete the
		// batch, then wait our turn.
		if len(b.pending) >= b.maxSize {
			select {
			case b.full <- struct{}{}:
			default:
			}
		}
		b.mu.Unlock()
		select {
		case <-p.done:
			return p.probs, p.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// We are the leader: pending was empty before our append, so our own
	// request is guaranteed to be in the first collected batch.
	b.leading = true
	b.mu.Unlock()
	b.lead()
	<-p.done
	return p.probs, p.err
}

// lead runs one batching round: window, collect, execute, deliver. When
// requests remain after collection it spawns a continuation so leadership
// is never dropped while the queue is non-empty. The caller must have set
// b.leading under the lock.
func (b *batcher) lead() {
	if b.maxWait > 0 {
		timer := time.NewTimer(b.maxWait)
		select {
		case <-timer.C:
		case <-b.full:
			timer.Stop()
		}
	}

	b.mu.Lock()
	n := len(b.pending)
	if n > b.maxSize {
		n = b.maxSize
	}
	batch := make([]*pendingPredict, n)
	copy(batch, b.pending[:n])
	rest := len(b.pending) - n
	copy(b.pending, b.pending[n:])
	for i := rest; i < len(b.pending); i++ {
		b.pending[i] = nil
	}
	b.pending = b.pending[:rest]
	if rest == 0 {
		b.leading = false
	}
	// Drain a stale full signal, then re-arm it if the remainder already
	// fills the next batch.
	select {
	case <-b.full:
	default:
	}
	if rest >= b.maxSize {
		select {
		case b.full <- struct{}{}:
		default:
		}
	}
	b.mu.Unlock()

	if rest > 0 {
		go b.lead()
	}
	if len(batch) == 0 {
		return
	}

	as := make([]*acfg.ACFG, len(batch))
	for i, q := range batch {
		as[i] = q.a
	}
	out, err := b.model.PredictBatch(as, b.workers)
	if b.metrics != nil {
		b.metrics.ObserveBatch(len(batch))
	}
	for i, q := range batch {
		if err != nil {
			q.err = err
		} else {
			q.probs = out[i]
		}
		close(q.done)
	}
}
