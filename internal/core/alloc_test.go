package core

import (
	"math/rand"
	"testing"

	"repro/internal/acfg"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// These tests pin the zero-allocation contract of the training hot path:
// after one warm-up pass fills the replica workspaces' free lists, the
// steady state of TrainStep, RunEpoch (Workers=1) and the prediction engine
// performs no heap allocations at all. Any regression — a stray closure, a
// tensor.New on the sample path, a forgotten buffer reuse — fails here long
// before it would show up as benchmark noise.

// allocVariants covers every model architecture the config can select.
var allocVariants = []struct {
	name    string
	pooling PoolingType
	head    HeadType
}{
	{"sortpool-conv1d", SortPooling, Conv1DHead},
	{"sortpool-weightedvertices", SortPooling, WeightedVerticesHead},
	{"adaptive-pooling", AdaptivePooling, Conv1DHead},
}

func TestTrainStepZeroAlloc(t *testing.T) {
	for _, v := range allocVariants {
		t.Run(v.name, func(t *testing.T) {
			cfg := tinyConfig(v.pooling, v.head)
			cfg.DropoutRate = 0.2 // exercise the stochastic path too
			rng := rand.New(rand.NewSource(5))
			d := twoClassDataset(rng, 6)
			m, err := NewModel(cfg, d.Sizes())
			if err != nil {
				t.Fatal(err)
			}
			m.SetScaler(fitScaler(t, d))

			step := func() {
				for i, s := range d.Samples {
					m.TrainStep(s.ACFG, s.Label, sampleSeed(cfg.Seed, 0, i))
				}
				for _, p := range m.params {
					p.Grad.Zero()
				}
			}
			step() // warm-up: fill the workspace free lists
			if allocs := testing.AllocsPerRun(5, step); allocs > 0 {
				t.Errorf("steady-state TrainStep allocated %.1f objects per sweep, want 0", allocs)
			}
		})
	}
}

func TestRunEpochZeroAlloc(t *testing.T) {
	cfg := determinismConfig()
	rng := rand.New(rand.NewSource(6))
	d := twoClassDataset(rng, 8)
	m, err := NewModel(cfg, d.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewTrainSession(m, d, TrainOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // warm-up epochs
		if _, _, err := sess.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := sess.RunEpoch(); err != nil {
			t.Error(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state RunEpoch allocated %.1f objects per epoch, want 0", allocs)
	}
}

func TestPredictEngineZeroAlloc(t *testing.T) {
	cfg := tinyConfig(SortPooling, WeightedVerticesHead)
	rng := rand.New(rand.NewSource(7))
	d := twoClassDataset(rng, 6)
	m, err := NewModel(cfg, d.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	m.SetScaler(fitScaler(t, d))
	engine, err := NewParallelBatch(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]sampleTask, d.Len())
	for i, s := range d.Samples {
		tasks[i] = sampleTask{a: s.ACFG}
	}
	out := make([][]float64, d.Len())
	if err := engine.predictAll(tasks, out); err != nil { // warm-up allocates the out slots
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := engine.predictAll(tasks, out); err != nil {
			t.Error(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state predictAll allocated %.1f objects per batch, want 0", allocs)
	}
	// EvalBatch shares the same machinery; pin it too.
	for i := range tasks {
		tasks[i].label = d.Samples[i].Label
	}
	results := make([]sampleResult, d.Len())
	if err := engine.EvalBatch(tasks, results); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(5, func() {
		if err := engine.EvalBatch(tasks, results); err != nil {
			t.Error(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state EvalBatch allocated %.1f objects per batch, want 0", allocs)
	}
}

// chainACFG returns an n-vertex path graph with random attributes.
func chainACFG(rng *rand.Rand, n int) *acfg.ACFG {
	g := graph.NewDirected(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	attrs := tensor.New(n, acfg.NumAttributes)
	for i := range attrs.Data {
		attrs.Data[i] = rng.Float64()
	}
	a, err := acfg.New(g, attrs)
	if err != nil {
		panic(err)
	}
	return a
}

// TestAMPHeadWorkspaceIndependentOfChannels pins the memory side of the head
// fusion at DefaultConfig: a prediction's scratch is a handful of n×Σc
// matrices (graph-conv intermediates, the concatenation, its Volume copy),
// never a Conv2DChannels×n×Σc map. Growing from a 50- to a 400-vertex graph
// must add less than the room of eight n×Σc matrices; the unfused head's
// three 16-channel maps alone were 15 MB here.
func TestAMPHeadWorkspaceIndependentOfChannels(t *testing.T) {
	cfg := DefaultConfig(2, acfg.NumAttributes)
	m, err := NewModel(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	m.Predict(chainACFG(rng, 50))
	before := m.WorkspaceStats().Bytes
	const n = 400
	m.Predict(chainACFG(rng, n))
	grew := m.WorkspaceStats().Bytes - before
	if limit := uint64(8 * n * cfg.TotalConvWidth() * 8); grew >= limit {
		t.Errorf("predicting a %d-vertex graph grew the workspace by %d bytes, want < %d (8 n×Σc matrices)", n, grew, limit)
	}
}
