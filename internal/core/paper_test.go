package core

// Golden tests for the worked example the paper walks through in Section
// III (Figures 2–5): a 5-vertex sample graph g with two attribute channels,
// two graph-convolution layers with fixed weights W1 and W2, sort pooling
// with k = 3 and the WeightedVertices layer with W = [0.4, 0.1, 0.5].
//
// The figures' exact attribute values are not recoverable from the paper
// text, so X is fixed here and every stage is checked against the paper's
// formulas evaluated densely and by hand, which pins the implementation to
// the equations the figures illustrate.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// figure2Graph is the sample graph g: 5 vertices, edges
// 0→1, 0→4, 1→2, 2→3, 3→1, 4→3.
func figure2Graph() *graph.Directed {
	g := graph.NewDirected(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 4)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1)
	g.AddEdge(4, 3)
	return g
}

// mat is tensor.FromRows for literals: it panics on ragged rows.
func mat(rows [][]float64) *tensor.Matrix {
	m, err := tensor.FromRows(rows)
	if err != nil {
		panic(err)
	}
	return m
}

// volumeOf wraps a matrix's data as a 1×rows×cols volume (no copy).
func volumeOf(m *tensor.Matrix) *nn.Volume {
	return &nn.Volume{C: 1, H: m.Rows, W: m.Cols, Data: m.Data}
}

// figure2X is the attribute matrix with two channels F1, F2.
func figure2X() *tensor.Matrix {
	return mat([][]float64{
		{1, 2},
		{3, 1},
		{0, 4},
		{2, 2},
		{1, 0},
	})
}

// TestPaperFigure2 checks Ā = A + I and D̄ for the sample graph.
func TestPaperFigure2(t *testing.T) {
	g := figure2Graph()
	aug := g.AugmentedAdjacency()
	wantAug := mat([][]float64{
		{1, 1, 0, 0, 1},
		{0, 1, 1, 0, 0},
		{0, 0, 1, 1, 0},
		{0, 1, 0, 1, 0},
		{0, 0, 0, 1, 1},
	})
	if !tensor.Equal(aug, wantAug, 0) {
		t.Fatalf("Ā = %v, want %v", aug, wantAug)
	}
	deg := g.AugmentedDegrees()
	wantDeg := []float64{3, 2, 2, 2, 2}
	for i, w := range wantDeg {
		if deg[i] != w {
			t.Fatalf("D̄[%d] = %v, want %v", i, deg[i], w)
		}
	}
}

// figure3Weights returns the fixed layer weights of Figure 3.
func figure3Weights() (*tensor.Matrix, *tensor.Matrix) {
	w1 := mat([][]float64{
		{1, 0, 1},
		{0, 1, 0},
	})
	w2 := mat([][]float64{
		{0, 1, -2, 2},
		{1, 1, 7, -2},
		{1, 0, -1, 4},
	})
	return w1, w2
}

// TestPaperFigure3 runs two graph-convolution layers with W1, W2 and checks
// the stack's output against the dense evaluation of Eq. 1,
// Z_{t+1} = relu(D̄⁻¹ Ā Z_t W_t), including spot-checked hand-computed
// entries.
func TestPaperFigure3(t *testing.T) {
	g := figure2Graph()
	x := figure2X()
	w1, w2 := figure3Weights()

	stack := &GraphConvStack{Weights: []*nn.Param{
		nn.NewParam("W1", w1.Clone()),
		nn.NewParam("W2", w2.Clone()),
	}}
	csr := graph.NewCSR(g)
	got := stack.Forward(csr, x)

	// Dense reference.
	p := csr.Dense()
	z1 := oracleRelu(oracleMatMul(p, oracleMatMul(x, w1)))
	z2 := oracleRelu(oracleMatMul(p, oracleMatMul(z1, w2)))
	want := tensor.HConcat(z1, z2)
	if !tensor.Equal(got, want, 1e-12) {
		t.Fatalf("Z^{1:2} =\n%v\nwant\n%v", got, want)
	}
	if got.Rows != 5 || got.Cols != 7 {
		t.Fatalf("Z^{1:2} is %dx%d, want 5x7", got.Rows, got.Cols)
	}

	// Hand computation for vertex 1 of Z1: row 1 of Ā selects vertices
	// {1, 2}; XW1 rows: v1 = (3, 1, 3), v2 = (0, 4, 0); mean = (1.5, 2.5,
	// 1.5); relu keeps it.
	wantRow1 := []float64{1.5, 2.5, 1.5}
	for c, w := range wantRow1 {
		if math.Abs(z1.At(1, c)-w) > 1e-12 {
			t.Fatalf("Z1[1] = %v, want %v", z1.Row(1), wantRow1)
		}
	}
	// Vertex 2 of Z1 averages XW1 rows {2, 3}: v2 = (0,4,0), v3 = (2,2,2)
	// → (1, 3, 1).
	wantRow2 := []float64{1, 3, 1}
	for c, w := range wantRow2 {
		if math.Abs(z1.At(2, c)-w) > 1e-12 {
			t.Fatalf("Z1[2] = %v, want %v", z1.Row(2), wantRow2)
		}
	}
}

// TestPaperFigure4 checks the sort-pooling stage with k = 3: rows sorted by
// the last feature channel in decreasing order and the two smallest rows
// discarded.
func TestPaperFigure4(t *testing.T) {
	// Z^{1:2} with distinct last-channel values so sorting is by the last
	// column only, as in the figure.
	z := mat([][]float64{
		{0.1, 1, 5.0},
		{0.2, 2, 3.0},
		{0.3, 3, 9.0},
		{0.4, 4, 1.0},
		{0.5, 5, 7.0},
	})
	sp := NewSortPool(3)
	out := sp.Forward(z)
	if out.Rows != 3 || out.Cols != 3 {
		t.Fatalf("Zsp is %dx%d, want 3x3", out.Rows, out.Cols)
	}
	// Order by last channel desc: vertices 2 (9), 4 (7), 0 (5); 1 and 3
	// truncated.
	wantOrder := []int{2, 4, 0}
	gotOrder := sp.order
	for i, w := range wantOrder {
		if gotOrder[i] != w {
			t.Fatalf("sort order = %v, want %v", gotOrder, wantOrder)
		}
	}
	if out.At(0, 2) != 9 || out.At(1, 2) != 7 || out.At(2, 2) != 5 {
		t.Fatalf("Zsp last column = %v %v %v", out.At(0, 2), out.At(1, 2), out.At(2, 2))
	}
}

// TestPaperFigure4TieBreaking checks the Weisfeiler-Lehman-style
// tie-breaking: equal last channels defer to the second-to-last channel.
func TestPaperFigure4TieBreaking(t *testing.T) {
	z := mat([][]float64{
		{1, 2, 5},
		{9, 9, 5},
		{1, 7, 5},
	})
	sp := NewSortPool(3)
	sp.Forward(z)
	want := []int{1, 2, 0} // ties on channel 2 broken by channel 1 desc
	got := sp.order
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("tie-broken order = %v, want %v", got, want)
		}
	}
}

// TestPaperFigure4Padding: graphs smaller than k are zero-padded.
func TestPaperFigure4Padding(t *testing.T) {
	z := mat([][]float64{{1, 2}})
	sp := NewSortPool(3)
	out := sp.Forward(z)
	if out.Rows != 3 {
		t.Fatalf("rows = %d, want 3", out.Rows)
	}
	if out.At(1, 0) != 0 || out.At(2, 1) != 0 {
		t.Fatal("padding rows must be zero")
	}
	order := sp.order
	if order[1] != -1 || order[2] != -1 {
		t.Fatalf("padding order = %v", order)
	}
}

// TestPaperFigure5 evaluates the WeightedVertices layer with the figure's
// weights W = [0.4, 0.1, 0.5] on a fixed Zsp and compares against the
// hand-evaluated E = relu(W × Zsp) of Eq. 3.
func TestPaperFigure5(t *testing.T) {
	zsp := mat([][]float64{
		{1, 0, 2, -1},
		{3, 1, 0, 2},
		{0, 2, -4, 1},
	})
	wv := &WeightedVertices{
		K: 3,
		W: nn.NewParam("W", mat([][]float64{{0.4, 0.1, 0.5}})),
	}
	out := wv.Forward(volumeOf(zsp), false)
	// W×Zsp = [0.4·1+0.1·3+0.5·0, 0.4·0+0.1·1+0.5·2,
	//          0.4·2+0.1·0+0.5·(-4), 0.4·(-1)+0.1·2+0.5·1]
	//       = [0.7, 1.1, -1.2, 0.3] → relu → [0.7, 1.1, 0, 0.3]
	want := []float64{0.7, 1.1, 0, 0.3}
	if out.Len() != 4 {
		t.Fatalf("E has %d elements, want 4", out.Len())
	}
	for i, w := range want {
		if math.Abs(out.Data[i]-w) > 1e-12 {
			t.Fatalf("E = %v, want %v", out.Data, want)
		}
	}
}

// TestSortPoolBackwardRouting: gradients flow only to the kept vertices.
func TestSortPoolBackwardRouting(t *testing.T) {
	z := mat([][]float64{
		{0, 0, 5},
		{0, 0, 3},
		{0, 0, 9},
	})
	sp := NewSortPool(2)
	sp.Forward(z) // keeps vertices 2, 0
	dout := mat([][]float64{
		{1, 2, 3},
		{4, 5, 6},
	})
	din := sp.Backward(dout)
	if din.At(2, 0) != 1 || din.At(0, 1) != 5 {
		t.Fatalf("din = %v", din)
	}
	for c := 0; c < 3; c++ {
		if din.At(1, c) != 0 {
			t.Fatal("truncated vertex must receive no gradient")
		}
	}
}

// TestGraphConvGradients numerically checks the stack's weight and input
// gradients on the Figure 2 sample graph.
func TestGraphConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := figure2Graph()
	csr := graph.NewCSR(g)
	stack := NewGraphConvStack(rng, 2, []int{3, 4})
	x := tensor.Uniform(rng, 5, 2, -2, 2)

	weights := tensor.Uniform(rng, 5, 7, -1, 1) // loss weights over Z^{1:2}
	lossOf := func() float64 {
		return dot(weights.Data, stack.Forward(csr, x).Data)
	}

	stack.Forward(csr, x)
	for _, p := range stack.Params() {
		p.ZeroGrad()
	}
	din := stack.Backward(weights.Clone())

	const h = 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		up := lossOf()
		x.Data[i] = orig - h
		down := lossOf()
		x.Data[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-din.Data[i]) > 1e-5 {
			t.Fatalf("dX[%d]: analytic %v numeric %v", i, din.Data[i], num)
		}
	}
	for pi, p := range stack.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			up := lossOf()
			p.Value.Data[i] = orig - h
			down := lossOf()
			p.Value.Data[i] = orig
			num := (up - down) / (2 * h)
			if math.Abs(num-p.Grad.Data[i]) > 1e-5 {
				t.Fatalf("dW%d[%d]: analytic %v numeric %v", pi, i, p.Grad.Data[i], num)
			}
		}
	}
}

// TestWeightedVerticesGradients numerically checks Eq. 3's backward pass.
func TestWeightedVerticesGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	wv := NewWeightedVertices(rng, 3)
	in := volumeOf(tensor.Uniform(rng, 3, 4, -2, 2))
	weights := make([]float64, 4)
	for i := range weights {
		weights[i] = rng.Float64()*2 - 1
	}
	lossOf := func() float64 {
		out := wv.Forward(in, false)
		s := 0.0
		for i, v := range out.Data {
			s += v * weights[i]
		}
		return s
	}
	wv.Forward(in, false)
	wv.W.ZeroGrad()
	din := wv.Backward(nn.VecVolume(weights))

	const h = 1e-6
	for i := range in.Data {
		orig := in.Data[i]
		in.Data[i] = orig + h
		up := lossOf()
		in.Data[i] = orig - h
		down := lossOf()
		in.Data[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-din.Data[i]) > 1e-6 {
			t.Fatalf("din[%d]: analytic %v numeric %v", i, din.Data[i], num)
		}
	}
	for i := range wv.W.Value.Data {
		orig := wv.W.Value.Data[i]
		wv.W.Value.Data[i] = orig + h
		up := lossOf()
		wv.W.Value.Data[i] = orig - h
		down := lossOf()
		wv.W.Value.Data[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-wv.W.Grad.Data[i]) > 1e-6 {
			t.Fatalf("dW[%d]: analytic %v numeric %v", i, wv.W.Grad.Data[i], num)
		}
	}
}
