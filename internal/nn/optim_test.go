package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The gradient-averaging contract Adam must honor: Param.Grad
// holds the SUM of per-sample gradients and Step(n) scales it by 1/n. The
// data-parallel trainer relies on this — shards accumulate raw sums and the
// tree reduction preserves them, so the effective learning rate depends
// only on the batch size, never on how a batch was sharded or the order
// shard buffers were reduced in.

func newTestParam(rng *rand.Rand) *Param {
	p := NewParam("w", tensor.New(3, 4))
	for i := range p.Value.Data {
		p.Value.Data[i] = rng.NormFloat64()
	}
	return p
}

// TestStepAveragesSummedGradients updates one parameter two ways: optimizer
// A sees the sum of n per-sample gradients and calls Step(n); optimizer B
// sees their precomputed mean and calls Step(1). Both must land on the same
// values (up to FP rounding of the division).
func TestStepAveragesSummedGradients(t *testing.T) {
	const n = 7
	t.Run("adam", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		summed := newTestParam(rng)
		meaned := NewParam("w", summed.Value.Clone())
		optSum := NewAdam([]*Param{summed}, 0.01, 1e-4)
		optMean := NewAdam([]*Param{meaned}, 0.01, 1e-4)

		for step := 0; step < 5; step++ {
			grads := make([][]float64, n)
			for s := range grads {
				grads[s] = make([]float64, len(summed.Value.Data))
				for i := range grads[s] {
					grads[s][i] = rng.NormFloat64()
				}
			}
			for _, g := range grads {
				for i, v := range g {
					summed.Grad.Data[i] += v
				}
			}
			for i := range meaned.Grad.Data {
				total := 0.0
				for _, g := range grads {
					total += g[i]
				}
				meaned.Grad.Data[i] = total / n
			}
			optSum.Step(n)
			optMean.Step(1)
			for i := range summed.Value.Data {
				if diff := math.Abs(summed.Value.Data[i] - meaned.Value.Data[i]); diff > 1e-12 {
					t.Fatalf("step %d elem %d: sum-path %.17g, mean-path %.17g (diff %.2g)",
						step, i, summed.Value.Data[i], meaned.Value.Data[i], diff)
				}
			}
		}
	})
}

// TestStepZeroesGradients pins the post-step invariant the shard buffers
// assume: after Step the accumulators are clean for the next batch.
func TestStepZeroesGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := newTestParam(rng)
	for i := range p.Grad.Data {
		p.Grad.Data[i] = rng.NormFloat64()
	}
	NewAdam([]*Param{p}, 0.01, 0).Step(4)
	for i, g := range p.Grad.Data {
		if g != 0 {
			t.Fatalf("grad[%d] = %v after Step, want 0", i, g)
		}
	}
}

// TestStepClampsBatchSize guards the scale = 1/max(n,1) rule: a degenerate
// Step(0) must not divide by zero.
func TestStepClampsBatchSize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := newTestParam(rng)
	p.Grad.Data[0] = 1
	NewAdam([]*Param{p}, 0.1, 0).Step(0)
	for i, v := range p.Value.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("value[%d] = %v after Step(0)", i, v)
		}
	}
}
