package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Per-layer finite-difference checks for the core layer stack. The
// end-to-end checks in model_test.go catch *that* a gradient is wrong; the
// per-layer checks here localize *where*, and exercise the input gradients
// the data-parallel engine relies on shard boundaries never distorting.

const fdStep = 1e-6

// fdCompare verifies an analytic derivative against a central difference.
func fdCompare(t *testing.T, name string, i int, analytic, plus, minus, tol float64) {
	t.Helper()
	numeric := (plus - minus) / (2 * fdStep)
	if diff := math.Abs(analytic - numeric); diff > tol {
		t.Errorf("%s[%d]: analytic %.8g, numeric %.8g (diff %.2g)", name, i, analytic, numeric, diff)
	}
}

// lossCoeffs gives a fixed random linear functional of a layer's output so
// the scalar "loss" exercises every output element.
func lossCoeffs(rng *rand.Rand, n int) []float64 {
	cs := make([]float64, n)
	for i := range cs {
		cs[i] = rng.NormFloat64()
	}
	return cs
}

func dot(cs, xs []float64) float64 {
	total := 0.0
	for i, c := range cs {
		total += c * xs[i]
	}
	return total
}

// TestGraphConvStackFiniteDifference checks both the parameter and the
// input gradients of the Eq. 1 convolution stack on a small loopy graph.
func TestGraphConvStackFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := graph.NewDirected(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}, {4, 0}} {
		g.AddEdge(e[0], e[1])
	}
	csr := graph.NewCSR(g)
	stack := newTestBackend(t, "gcn", rng, 4, []int{6, 5})
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

// TestSortPoolFiniteDifference checks the input gradient routed through the
// sort-pooling permutation (and truncation/padding). Sort keys are spaced
// far wider than the probe step so the permutation is stable under
// perturbation — at a key tie the layer is genuinely non-differentiable.
func TestSortPoolFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, shape := range []struct{ n, k int }{{7, 4}, {3, 5}} { // truncating and padding
		sp := NewSortPool(shape.k)
		z := tensor.New(shape.n, 3)
		for i := range z.Data {
			z.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < shape.n; i++ {
			z.Set(i, 2, float64(i)*10+rng.Float64()) // well-separated sort keys
		}
		cs := lossCoeffs(rng, shape.k*3)
		lossOf := func() float64 { return dot(cs, sp.Forward(z).Data) }

		out := sp.Forward(z)
		dout := tensor.New(out.Rows, out.Cols)
		copy(dout.Data, cs)
		dz := sp.Backward(dout)

		for i := range z.Data {
			orig := z.Data[i]
			z.Data[i] = orig + fdStep
			plus := lossOf()
			z.Data[i] = orig - fdStep
			minus := lossOf()
			z.Data[i] = orig
			fdCompare(t, "sortpool-in", i, dz.Data[i], plus, minus, 1e-5)
		}
	}
}

// checkVolumeLayer runs a central-difference check of an nn.Layer's
// parameter and input gradients, mirroring internal/nn's harness for the
// layers that live in core.
func checkVolumeLayer(t *testing.T, l nn.Layer, in *nn.Volume, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(81))
	var cs []float64
	lossOf := func() float64 {
		out := l.Forward(in, false)
		if cs == nil {
			cs = lossCoeffs(rng, out.Len())
		}
		return dot(cs, out.Data)
	}
	lossOf() // fix the coefficient vector

	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	out := l.Forward(in, false)
	dout := nn.NewVolume(out.C, out.H, out.W)
	copy(dout.Data, cs)
	din := l.Backward(dout)

	for _, p := range l.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + fdStep
			plus := lossOf()
			p.Value.Data[i] = orig - fdStep
			minus := lossOf()
			p.Value.Data[i] = orig
			fdCompare(t, p.Name, i, p.Grad.Data[i], plus, minus, tol)
		}
	}
	for i := range in.Data {
		orig := in.Data[i]
		in.Data[i] = orig + fdStep
		plus := lossOf()
		in.Data[i] = orig - fdStep
		minus := lossOf()
		in.Data[i] = orig
		fdCompare(t, "input", i, din.Data[i], plus, minus, tol)
	}
}

// TestWeightedVerticesFiniteDifference checks Eq. 3's weighted graph
// embedding — both ∂L/∂W and ∂L/∂input.
func TestWeightedVerticesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	l := NewWeightedVertices((&paramSource{rng: rng}).vertexWeights(4))
	in := nn.NewVolume(1, 4, 5)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	checkVolumeLayer(t, l, in, 1e-4)
}

// TestAMPHeadFiniteDifference checks the Section III-C adaptive-pooling
// head (Conv2D → AMP → VGG stack → dense classifier) as one Sequential,
// the configuration the end-to-end adaptive check exercises only through
// the full model.
func TestAMPHeadFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	cfg := tinyConfig(AdaptivePooling, Conv1DHead)
	cfg.PoolingRatio = 0.5 // tiny AMP grid keeps the FD sweep fast
	head := buildAMPHead(&paramSource{rng: rng}, cfg)
	for _, p := range head.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] += (rng.Float64() - 0.5) * 0.2
		}
	}
	in := nn.NewVolume(1, 9, 6) // a 9-vertex graph's feature map
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	checkVolumeLayer(t, head, in, 1e-3)
}
