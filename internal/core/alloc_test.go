package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/acfg"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// These tests pin the zero-allocation contract of the training hot path:
// after one warm-up pass sizes the replica workspaces' slabs, the
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

// forEachModel runs check as a subtest, variant/backend, for every model a
// Config can build: each architecture in allocVariants with each registered
// graph-convolution backend. Dropout is on, so the stochastic path is
// measured too.
func forEachModel(t *testing.T, check func(t *testing.T, cfg Config)) {
	for _, v := range allocVariants {
		t.Run(v.name, func(t *testing.T) {
			for _, conv := range ConvBackendNames() {
				t.Run(conv, func(t *testing.T) {
					cfg := tinyConfig(v.pooling, v.head)
					cfg.Conv = conv
					cfg.DropoutRate = 0.2
					check(t, cfg)
				})
			}
		})
	}
}

func TestTrainStepZeroAlloc(t *testing.T) {
	forEachModel(t, func(t *testing.T, cfg Config) {
		rng := rand.New(rand.NewSource(5))
		d := twoClassDataset(rng, 6)
		m, err := NewModel(cfg, d.Sizes())
		if err != nil {
			t.Fatal(err)
		}
		m.scaler = fitScaler(t, d)

		step := func() {
			for i, s := range d.Samples {
				m.TrainStep(s.ACFG, s.Label, sampleSeed(cfg.Seed, 0, i))
			}
			for _, p := range m.params {
				p.Grad.Zero()
			}
		}
		step() // warm-up: size the workspace slab
		if allocs := testing.AllocsPerRun(5, step); allocs > 0 {
			t.Errorf("steady-state TrainStep allocated %.1f objects per sweep, want 0", allocs)
		}
	})
}

func TestRunEpochZeroAlloc(t *testing.T) {
	cfg := determinismConfig()
	rng := rand.New(rand.NewSource(6))
	d := twoClassDataset(rng, 8)
	m, err := NewModel(cfg, d.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewTrainSession(m.Weights, d, TrainOptions{Workers: 1})
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
	forEachModel(t, func(t *testing.T, cfg Config) {
		rng := rand.New(rand.NewSource(7))
		d := twoClassDataset(rng, 6)
		m, err := NewModel(cfg, d.Sizes())
		if err != nil {
			t.Fatal(err)
		}
		m.scaler = fitScaler(t, d)
		engine := NewParallelBatch(m.Weights, 1)
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
	})
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

// predictSample and trainSample are the two per-sample passes whose scratch the
// tests below measure.
func predictSample(m *Model, a *acfg.ACFG) { m.Predict(a) }
func trainSample(m *Model, a *acfg.ACFG)   { m.TrainStep(a, 0, 1) }

// warmSlabBytes returns the slab a fresh default-config model with a scaler
// installed (as every serving replica has) settles on for an n-vertex
// graph: run does one sample, and the second run's Reset consolidates the
// cold pass's overflow chunks into exactly the sample's total checkouts.
func warmSlabBytes(t *testing.T, n int, run func(m *Model, a *acfg.ACFG)) uint64 {
	t.Helper()
	m, err := NewModel(DefaultConfig(2, acfg.NumAttributes), nil)
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.New([]string{"chain"})
	d.Add(&dataset.Sample{ACFG: chainACFG(rand.New(rand.NewSource(9)), n)})
	m.scaler = fitScaler(t, d)
	run(m, d.Samples[0].ACFG)
	run(m, d.Samples[0].ACFG)
	return m.WorkspaceStats().Bytes
}

// TestAMPHeadWorkspaceIndependentOfChannels pins the memory side of the head
// fusion at DefaultConfig: a prediction's per-vertex scratch is exactly the
// scaled attribute row, one product row as wide as the widest graph-conv
// layer (every layer's Z_t·W_t shares it) and two n×Σc matrices (each
// layer's activation, rectified in place — Σc in all — then the
// concatenation, which the head reads in place), never a
// Conv2DChannels×n×Σc map; the unfused head's three 16-channel maps alone
// were 15 MB at n = 400.
// The assertion is exact because the arena's slab is the sum of one pass's
// checkouts, byte for byte, where the free lists it replaced could only
// bound the growth.
func TestAMPHeadWorkspaceIndependentOfChannels(t *testing.T) {
	cfg := DefaultConfig(2, acfg.NumAttributes)
	grew := warmSlabBytes(t, 400, predictSample) - warmSlabBytes(t, 50, predictSample)
	widest := slices.Max(cfg.ConvSizes)
	if want := uint64(8 * (400 - 50) * (cfg.AttrDim + widest + 2*cfg.TotalConvWidth())); grew != want {
		t.Errorf("350 more vertices grew the prediction slab by %d bytes, want %d (attributes + widest layer + two n×Σc matrices)", grew, want)
	}
}

// TestWorkspaceBytesPerVertex pins the two measurements tensor's slab
// retention bound and the service's vertex limit are sized from: what one
// more vertex costs a serving replica to predict and to train. If a layer
// change moves them, revisit both constants. (The head reads the conv
// stack's n×Σc output in place and the conv stack reads the head's input
// gradient in place — 1 024 B per vertex each at Σc = 128 — so neither is
// in these numbers.)
func TestWorkspaceBytesPerVertex(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(m *Model, a *acfg.ACFG)
		want uint64
	}{
		{"predict", predictSample, 2392},
		{"train", trainSample, 6320},
	} {
		got := (warmSlabBytes(t, 400, tc.run) - warmSlabBytes(t, 100, tc.run)) / 300
		if got != tc.want {
			t.Errorf("%s: %d bytes of scratch per vertex, want %d", tc.name, got, tc.want)
		}
	}
}

// replicaSink keeps NewReplica's result live, so the builds below are
// neither elided nor collected mid-measurement.
var replicaSink *Model

// TestNewReplicaAllocs pins what a replica costs to build at DefaultConfig:
// its layers over the weights' tensors and an empty arena — no drawn and
// discarded parameter set, no gradient buffers (837 KB in all when it drew
// and allocated both).
func TestNewReplicaAllocs(t *testing.T) {
	w, err := NewWeights(DefaultConfig(9, acfg.NumAttributes), nil)
	if err != nil {
		t.Fatal(err)
	}
	const runs, limit = 20, 120 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		replicaSink = w.NewReplica()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > limit {
		t.Errorf("NewReplica allocated %d bytes per replica, want ≤ %d", per, limit)
	}
}

// BenchmarkNewReplica reports what building one serving replica of a
// DefaultConfig weight set costs: time, bytes and allocations.
func BenchmarkNewReplica(b *testing.B) {
	w, err := NewWeights(DefaultConfig(9, acfg.NumAttributes), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		replicaSink = w.NewReplica()
	}
}
