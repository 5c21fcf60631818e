package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/acfg"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// The backend conformance harness: every backend in the registry is run
// through the full contract of ConvBackend automatically, so registering a
// new backend buys it the whole suite with no new test code. The checks are
// the same ones the default backend earned piecemeal across earlier PRs:
//
//   - finite-difference gradients on every parameter and the input
//   - bit-identical training at Workers 1, 4 and 8
//   - NewReplica shares weights but keeps gradients private
//   - a replica that has only predicted holds no gradient buffers
//   - empty-graph and single-vertex edge cases
//   - bit-for-bit agreement of the fast path with a straight-loop oracle
//     (the deterministic sweep here; coverage-guided mutation in the
//     FuzzConv* targets)

// conformanceConfig is the model configuration the harness trains under:
// the determinism config (dropout on — the hardest state to keep
// order-independent) with the backend swapped in.
func conformanceConfig(name string) Config {
	cfg := determinismConfig()
	cfg.Conv = name
	cfg.Epochs = 2
	return cfg
}

// newTestBackend builds a standalone backend instance for layer-level
// checks (no workspace: checkouts fall back to fresh allocations).
func newTestBackend(t *testing.T, name string, rng *rand.Rand, attrDim int, sizes []int) ConvBackend {
	t.Helper()
	cfg := Config{AttrDim: attrDim, ConvSizes: sizes, Conv: name}
	build, ok := convBuilders[name]
	if !ok {
		t.Fatalf("backend %q not registered", name)
	}
	return build(&paramSource{rng: rng}, &cfg)
}

func TestConvBackendConformance(t *testing.T) {
	for _, name := range ConvBackendNames() {
		t.Run(name, func(t *testing.T) {
			t.Run("FiniteDifference", func(t *testing.T) { convFDCheck(t, name) })
			t.Run("WorkerDeterminism", func(t *testing.T) { convWorkerDeterminismCheck(t, name) })
			t.Run("NewReplicaGradPrivacy", func(t *testing.T) { convNewReplicaCheck(t, name) })
			t.Run("PredictHoldsNoGradients", func(t *testing.T) { convPredictGradCheck(t, name) })
			t.Run("EdgeCases", func(t *testing.T) { convEdgeCaseCheck(t, name) })
			t.Run("OracleAgreement", func(t *testing.T) { convOracleCheck(t, name) })
		})
	}
}

// convFDCheck verifies the backend's analytic gradients — every parameter
// and the input — against central differences on a small loopy graph,
// mirroring TestGraphConvStackFiniteDifference.
func convFDCheck(t *testing.T, name string) {
	rng := rand.New(rand.NewSource(61))
	g := graph.NewDirected(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}, {4, 0}} {
		g.AddEdge(e[0], e[1])
	}
	csr := graph.NewCSR(g)
	stack := newTestBackend(t, name, rng, 4, []int{6, 5})
	x := tensor.New(5, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	// Jitter weights off zero so no pre-activation sits on a ReLU kink.
	for _, p := range stack.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] += (rng.Float64() - 0.5) * 0.2
		}
	}
	cs := lossCoeffs(rng, 5*(6+5))
	lossOf := func() float64 { return dot(cs, stack.Forward(csr, x).Data) }

	for _, p := range stack.Params() {
		p.ZeroGrad()
	}
	out := stack.Forward(csr, x)
	dout := tensor.New(out.Rows, out.Cols)
	copy(dout.Data, cs)
	dx := stack.Backward(dout)

	for _, p := range stack.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + fdStep
			plus := lossOf()
			p.Value.Data[i] = orig - fdStep
			minus := lossOf()
			p.Value.Data[i] = orig
			fdCompare(t, p.Name, i, p.Grad.Data[i], plus, minus, 1e-4)
		}
	}
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + fdStep
		plus := lossOf()
		x.Data[i] = orig - fdStep
		minus := lossOf()
		x.Data[i] = orig
		fdCompare(t, "input", i, dx.Data[i], plus, minus, 1e-4)
	}
}

// convWorkerDeterminismCheck trains the same fixed-seed corpus at Workers
// 1, 4 and 8 and requires byte-identical serialized models and identical
// loss histories.
func convWorkerDeterminismCheck(t *testing.T, name string) {
	cfg := conformanceConfig(name)
	rng := rand.New(rand.NewSource(17))
	train := twoClassDataset(rng, 6)
	val := twoClassDataset(rng, 2)

	var refHist *History
	var refBytes []byte
	for _, workers := range []int{1, 4, 8} {
		m, err := NewModel(cfg, train.Sizes())
		if err != nil {
			t.Fatal(err)
		}
		hist, err := Train(m.Weights, train, val, TrainOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if refBytes == nil {
			refHist, refBytes = hist, buf.Bytes()
			continue
		}
		sameHistory(t, refHist, hist)
		if !bytes.Equal(refBytes, buf.Bytes()) {
			t.Errorf("workers=%d: serialized model differs from workers=1", workers)
		}
	}
}

// convNewReplicaCheck proves NewReplica's aliasing contract for the
// backend's parameters: replicas of one Weights share value tensors (an
// optimizer step is visible everywhere) but own private gradient buffers (a
// replica's backward never touches another's grads).
func convNewReplicaCheck(t *testing.T, name string) {
	cfg := conformanceConfig(name)
	rng := rand.New(rand.NewSource(23))
	d := twoClassDataset(rng, 4)
	m, err := NewModel(cfg, d.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	m.scaler = fitScaler(t, d)
	r := m.NewReplica()
	if len(r.params) != len(m.params) {
		t.Fatalf("replica has %d params, source %d", len(r.params), len(m.params))
	}
	for i := range m.params {
		if r.params[i].Value != m.params[i].Value {
			t.Errorf("param %d (%s): replica does not alias the source value tensor",
				i, m.params[i].Name)
		}
		if r.params[i].Grad == m.params[i].Grad {
			t.Errorf("param %d (%s): replica shares the source gradient buffer",
				i, m.params[i].Name)
		}
	}
	// A replica training step must leave every source gradient untouched.
	for _, p := range m.params {
		p.Grad.Zero()
	}
	s := d.Samples[0]
	r.TrainStep(s.ACFG, s.Label, 1)
	for i, p := range m.params {
		for _, v := range p.Grad.Data {
			if v != 0 {
				t.Fatalf("param %d (%s): replica backward leaked into source grads", i, p.Name)
			}
		}
	}
	// And the replica must have accumulated something for its own backend
	// params (the step actually ran through the conv stack).
	leaked := 0.0
	for _, p := range r.conv.Params() {
		for _, v := range p.Grad.Data {
			leaked += math.Abs(v)
		}
	}
	if leaked == 0 {
		t.Error("replica TrainStep accumulated no conv gradients")
	}
}

// convPredictGradCheck proves gradients exist only where something trains:
// replicas that have only predicted — one on its own and a predict engine's
// — hold zero gradient bytes, while a TrainStep gives its replica exactly
// one buffer per parameter and leaves its sibling without any.
func convPredictGradCheck(t *testing.T, name string) {
	cfg := conformanceConfig(name)
	rng := rand.New(rand.NewSource(29))
	d := twoClassDataset(rng, 4)
	w, err := NewWeights(cfg, d.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	w.scaler = fitScaler(t, d)
	served, trained := w.NewReplica(), w.NewReplica()
	for _, s := range d.Samples {
		served.Predict(s.ACFG)
	}
	engine := NewParallelBatch(w, 2)
	if _, err := engine.Predict(acfgsOf(d)); err != nil {
		t.Fatal(err)
	}
	for i, r := range append([]*Model{served}, engine.replicas...) {
		if b := gradBytes(r); b != 0 {
			t.Errorf("predict-only replica %d holds %d gradient bytes, want 0", i, b)
		}
	}
	s := d.Samples[0]
	trained.TrainStep(s.ACFG, s.Label, 1)
	if got, want := gradBytes(trained), 8*w.NumParameters(); got != want {
		t.Errorf("trained replica holds %d gradient bytes, want %d (one buffer per parameter)", got, want)
	}
	if b := gradBytes(served); b != 0 {
		t.Errorf("a sibling's TrainStep gave the predict-only replica %d gradient bytes", b)
	}
}

// gradBytes sums the bytes of m's gradient buffers.
func gradBytes(m *Model) int {
	n := 0
	for _, p := range m.params {
		n += 8 * len(p.Grad.Data)
	}
	return n
}

// convEdgeCaseCheck runs the degenerate inputs every backend must survive:
// an empty ACFG through the full model (classified as one zero vertex) and
// a single-vertex, zero-edge graph straight through Forward/Backward.
func convEdgeCaseCheck(t *testing.T, name string) {
	cfg := conformanceConfig(name)
	m, err := NewModel(cfg, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	empty := &acfg.ACFG{Graph: graph.NewDirected(0), Attrs: tensor.New(0, acfg.NumAttributes)}
	probs := m.Predict(empty)
	sum := 0.0
	for _, p := range probs {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("empty graph produced non-finite probability %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("empty-graph probabilities sum to %g", sum)
	}

	rng := rand.New(rand.NewSource(3))
	stack := newTestBackend(t, name, rng, 3, []int{4, 2})
	single := graph.NewDirected(1) // one vertex, no edges: P = [1]
	csr := graph.NewCSR(single)
	x := tensor.New(1, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	out := stack.Forward(csr, x)
	if out.Rows != 1 || out.Cols != 6 {
		t.Fatalf("single-vertex forward shape %dx%d, want 1x6", out.Rows, out.Cols)
	}
	dout := tensor.New(out.Rows, out.Cols)
	for i := range dout.Data {
		dout.Data[i] = 1
	}
	dx := stack.Backward(dout)
	if dx.Rows != 1 || dx.Cols != 3 {
		t.Fatalf("single-vertex backward shape %dx%d, want 1x3", dx.Rows, dx.Cols)
	}
	for i, v := range dx.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("single-vertex input grad[%d] is non-finite: %v", i, v)
		}
	}
}

// convOracleCheck is the deterministic half of the differential contract: a
// sweep of random graphs and inputs on which the fast path must agree bit
// for bit with the straight-loop oracle. The FuzzConv* targets mutate the
// same comparison.
func convOracleCheck(t *testing.T, name string) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000*trial + 7)))
		n := rng.Intn(11) + 1
		g := graph.NewDirected(n)
		for u := 0; u < n; u++ {
			for e := rng.Intn(4); e > 0; e-- {
				g.AddEdge(u, rng.Intn(n)) // self loops and duplicates allowed
			}
		}
		attrDim := rng.Intn(4) + 2
		sizes := []int{rng.Intn(5) + 1, rng.Intn(4) + 1}
		stack := newTestBackend(t, name, rng, attrDim, sizes)
		x := tensor.New(n, attrDim)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		got := stack.Forward(graph.NewCSR(g), x)
		want := oracleConvForward(t, stack, g, x)
		requireConvBitEqual(t, name, trial, got, want)
	}
}

// requireConvBitEqual compares two matrices bit for bit.
func requireConvBitEqual(t *testing.T, name string, trial int, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s trial %d: shape %dx%d, oracle %dx%d",
			name, trial, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s trial %d: element %d = %v (bits %x), oracle %v (bits %x)",
				name, trial, i, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}
