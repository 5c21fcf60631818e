package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// sourceFixture builds a small two-class dataset plus a held-out validation
// set with the determinism config (dropout enabled — the hardest state to
// keep identical across sample sources).
func sourceFixture(t *testing.T) (*dataset.Dataset, *dataset.Dataset, Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	train := twoClassDataset(rng, 8)
	val := twoClassDataset(rng, 3)
	cfg := determinismConfig()
	return train, val, cfg
}

func trainBytes(t *testing.T, cfg Config, src dataset.SampleSource, sizes []int, val *dataset.Dataset) (*History, []byte) {
	t.Helper()
	m, err := NewModel(cfg, sizes)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Train(m.Weights, src, val, TrainOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return hist, buf.Bytes()
}

func sameHistory(t *testing.T, a, b *History) {
	t.Helper()
	if len(a.TrainLoss) != len(b.TrainLoss) {
		t.Fatalf("epoch counts differ: %d vs %d", len(a.TrainLoss), len(b.TrainLoss))
	}
	for i := range a.TrainLoss {
		if a.TrainLoss[i] != b.TrainLoss[i] {
			t.Fatalf("epoch %d train loss differs: %v vs %v", i, a.TrainLoss[i], b.TrainLoss[i])
		}
	}
	for i := range a.ValLoss {
		if a.ValLoss[i] != b.ValLoss[i] {
			t.Fatalf("epoch %d val loss differs: %v vs %v", i, a.ValLoss[i], b.ValLoss[i])
		}
	}
	if a.BestEpoch != b.BestEpoch {
		t.Fatalf("best epoch differs: %d vs %d", a.BestEpoch, b.BestEpoch)
	}
}

// copyingSource is an in-memory SampleSource that, like a disk-backed one,
// hands out a distinct *Sample on every At call. A non-zero failAt makes
// the failAt-th call (1-based, counted across the source's lifetime) return
// errSourceBroken instead.
type copyingSource struct {
	d      *dataset.Dataset
	calls  int
	failAt int
}

var errSourceBroken = errors.New("source broken")

func (c *copyingSource) Len() int        { return c.d.Len() }
func (c *copyingSource) NumClasses() int { return c.d.NumClasses() }

func (c *copyingSource) At(i int) (*dataset.Sample, error) {
	c.calls++
	if c.calls == c.failAt {
		return nil, errSourceBroken
	}
	smp := *c.d.Samples[i]
	return &smp, nil
}

// TestTrainStreamFromSegments proves that what backs a SampleSource never
// reaches the numerics: samples copied out of memory on every At, as a
// disk-backed source hands them out, produce the SAME loss curves and
// serialized parameters as training on the resident Dataset. This is the
// property that lets production train from the durable corpus without
// materializing it; service.TestOutOfCoreTrainingBitIdentical holds the
// server's on-disk corpus to the same bytes. It runs for every conv backend
// — production fine-tunes whichever backend a checkpoint selects, and the
// contract is a property of the trainer, not of any backend's numerics.
func TestTrainStreamFromSegments(t *testing.T) {
	for _, name := range []string{"", "sage", "tag", "attn"} {
		t.Run(name, func(t *testing.T) {
			train, val, cfg := sourceFixture(t)
			cfg.Conv = name
			wantHist, wantBytes := trainBytes(t, cfg, train, train.Sizes(), val)

			hist, got := trainBytes(t, cfg, &copyingSource{d: train}, train.Sizes(), val)
			sameHistory(t, wantHist, hist)
			if !bytes.Equal(wantBytes, got) {
				t.Fatal("training from the copying source diverged from the resident dataset (serialized models differ)")
			}
		})
	}
}

// TestTrainSourceError covers the error branch of the per-batch fetch: a
// source whose At fails mid-epoch makes Train and RunEpoch return that error
// wrapped, the failed batch takes no optimizer step and leaves no gradient on
// any replica, and the session keeps working once the source recovers.
func TestTrainSourceError(t *testing.T) {
	train, _, cfg := sourceFixture(t)

	t.Run("Train", func(t *testing.T) {
		m, err := NewModel(cfg, train.Sizes())
		if err != nil {
			t.Fatal(err)
		}
		// Let the scaler fit read the source undisturbed, then fail inside
		// the first epoch's second batch.
		probe := &copyingSource{d: train}
		if _, err := FitScaler(probe); err != nil {
			t.Fatal(err)
		}
		src := &copyingSource{d: train, failAt: probe.calls + cfg.BatchSize + 2}
		if _, err := Train(m.Weights, src, nil, TrainOptions{Workers: 2}); !errors.Is(err, errSourceBroken) {
			t.Fatalf("Train error = %v, want one wrapping %v", err, errSourceBroken)
		}
	})

	for _, tc := range []struct {
		name      string
		failAfter int // At calls into the epoch before the failing one
	}{
		{"first batch", 1},
		{"second batch", cfg.BatchSize + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewModel(cfg, train.Sizes())
			if err != nil {
				t.Fatal(err)
			}
			src := &copyingSource{d: train}
			sess, err := NewTrainSession(m.Weights, src, TrainOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			before := m.Clone().values
			src.failAt = src.calls + tc.failAfter + 1
			if _, _, err := sess.RunEpoch(); !errors.Is(err, errSourceBroken) {
				t.Fatalf("RunEpoch error = %v, want one wrapping %v", err, errSourceBroken)
			}
			for ri, rep := range sess.engine.replicas {
				for _, p := range rep.params {
					for _, g := range p.Grad.Data {
						if g != 0 {
							t.Fatalf("replica %d holds a nonzero %s gradient after the failed batch", ri, p.Name)
						}
					}
				}
			}
			stepped := false
			for i, p := range m.values {
				for k, v := range p.Data {
					if v != before[i].Data[k] {
						stepped = true
					}
				}
			}
			if wantStep := tc.failAfter >= cfg.BatchSize; stepped != wantStep {
				t.Fatalf("optimizer stepped = %v, want %v (only batches fetched whole may step)", stepped, wantStep)
			}
			if sess.epoch != 0 {
				t.Fatalf("failed epoch advanced the epoch counter to %d", sess.epoch)
			}

			loss, _, err := sess.RunEpoch() // failAt is behind src.calls: the source has recovered
			if err != nil {
				t.Fatalf("RunEpoch after the source recovered: %v", err)
			}
			if !(loss > 0) || sess.epoch != 1 {
				t.Fatalf("recovered epoch: loss %v, epoch counter %d", loss, sess.epoch)
			}
		})
	}
}

// TestPreserveScalerSkipsRefit verifies that PreserveScaler keeps the
// model's fitted statistics across a fine-tuning run instead of refitting
// on the (differently distributed) increment.
func TestPreserveScalerSkipsRefit(t *testing.T) {
	train, _, cfg := sourceFixture(t)
	m, err := NewModel(cfg, train.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(m.Weights, train, nil, TrainOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	fitted := m.scaler
	if fitted == nil {
		t.Fatal("training left no scaler on the model")
	}

	rng := rand.New(rand.NewSource(99))
	increment := twoClassDataset(rng, 4)
	if _, err := NewTrainSession(m.Weights, increment, TrainOptions{Workers: 1, PreserveScaler: true}); err != nil {
		t.Fatal(err)
	}
	if m.scaler != fitted {
		t.Fatal("PreserveScaler did not keep the fitted scaler")
	}
	if _, err := NewTrainSession(m.Weights, increment, TrainOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if m.scaler == fitted {
		t.Fatal("without PreserveScaler the scaler should be refitted")
	}
}
