package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// paperSampleGraph builds the 5-vertex sample graph g of Figure 2. Edges are
// reconstructed from the augmented adjacency matrix shown in the figure:
// vertex degrees (augmented) are {3, 2, 2, 2, 2} with a cycle-like body.
// The concrete edge set used throughout the paper walk-through:
// 0→1, 0→4, 1→2, 2→3, 3→1, 4→3.
func paperSampleGraph() *Directed {
	g := NewDirected(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 4)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1)
	g.AddEdge(4, 3)
	return g
}

// hasEdge reports whether u→v is among u's successors.
func hasEdge(g *Directed, u, v int) bool { return slices.Contains(g.Succ(u), v) }

func TestAddEdgeAndHasEdge(t *testing.T) {
	g := NewDirected(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1) // duplicate ignored
	g.AddEdge(1, 2)
	if !hasEdge(g, 0, 1) || !hasEdge(g, 1, 2) {
		t.Fatal("missing inserted edges")
	}
	if hasEdge(g, 1, 0) {
		t.Fatal("reverse edge should not exist (directed)")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if g.OutDegree(0) != 1 {
		t.Fatalf("OutDegree(0) = %d, want 1", g.OutDegree(0))
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewDirected(2).AddEdge(0, 2)
}

// TestFromSuccessors checks the slab constructor against AddEdge: the same
// edges, a later AddEdge that grows one list leaving its neighbour in the
// shared slab intact, and a panic for lists AddEdge could not have built.
func TestFromSuccessors(t *testing.T) {
	slab := []int{1, 4, 2, 3, 1, 3}
	g := FromSuccessors([][]int{slab[0:2], slab[2:3], slab[3:4], slab[4:5], slab[5:6]})
	if want := paperSampleGraph(); !slices.Equal(g.Edges(), want.Edges()) {
		t.Fatalf("edges %v, AddEdge built %v", g.Edges(), want.Edges())
	}
	g.AddEdge(1, 4)
	if !slices.Equal(g.Succ(1), []int{2, 4}) || !slices.Equal(g.Succ(2), []int{3}) {
		t.Fatalf("after AddEdge(1, 4): Succ(1) = %v, Succ(2) = %v", g.Succ(1), g.Succ(2))
	}
	for _, out := range [][][]int{{{1, 0}, nil}, {{1, 1}, nil}, {{2}, nil}, {{-1}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromSuccessors(%v) did not panic", out)
				}
			}()
			FromSuccessors(out)
		}()
	}
}

func TestAdjacencyMatrices(t *testing.T) {
	g := paperSampleGraph()
	a := g.Adjacency()
	if a.At(0, 1) != 1 || a.At(0, 4) != 1 || a.At(1, 0) != 0 {
		t.Fatalf("adjacency wrong: %v", a)
	}
	aug := g.AugmentedAdjacency()
	for i := 0; i < 5; i++ {
		if aug.At(i, i) != 1 {
			t.Fatalf("augmented diagonal at %d = %v, want 1", i, aug.At(i, i))
		}
	}
	deg := g.AugmentedDegrees()
	want := []float64{3, 2, 2, 2, 2}
	for i, w := range want {
		if deg[i] != w {
			t.Fatalf("deg[%d] = %v, want %v", i, deg[i], w)
		}
	}
}

func TestAugmentedDegreeMatchesRowSums(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		g := NewDirected(n)
		for e := 0; e < rng.Intn(3*n); e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		aug := g.AugmentedAdjacency()
		deg := g.AugmentedDegrees()
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += aug.At(i, j)
			}
			if math.Abs(sum-deg[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// spmm and spmmT are the allocating forms of the two kernels the property
// tests below exercise.
func spmm(c *CSR, x *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(c.N(), x.Cols)
	c.SpMMInto(out, x)
	return out
}

func spmmT(c *CSR, x *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(c.N(), x.Cols)
	c.SpMMTInto(out, x)
	return out
}

// The four tests below state the algebraic properties of the propagation
// operator P = D̄⁻¹Ā; csr_test.go holds the same operator to bit-exact
// oracles.
func TestPropagatorMatchesDenseDefinition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		g := NewDirected(n)
		for e := 0; e < rng.Intn(3*n); e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		p := NewCSR(g)
		// Dense reference: D̄⁻¹ Ā
		aug := g.AugmentedAdjacency()
		deg := g.AugmentedDegrees()
		ref := tensor.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ref.Set(i, j, aug.At(i, j)/deg[i])
			}
		}
		if !tensor.Equal(p.Dense(), ref, 1e-12) {
			return false
		}
		x := tensor.Uniform(rng, n, 3, -5, 5)
		want := tensor.New(n, 3)
		tensor.MatMulNaiveInto(want, ref, x)
		return tensor.Equal(spmm(p, x), want, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropagatorRowsSumToOne(t *testing.T) {
	g := paperSampleGraph()
	p := NewCSR(g)
	d := p.Dense()
	for i := 0; i < d.Rows; i++ {
		sum := 0.0
		for j := 0; j < d.Cols; j++ {
			sum += d.At(i, j)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestPropagatorTransposeIsAdjoint(t *testing.T) {
	// <P x, y> == <x, Pᵀ y> for all x, y.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		g := NewDirected(n)
		for e := 0; e < rng.Intn(3*n); e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		p := NewCSR(g)
		x := tensor.Uniform(rng, n, 2, -3, 3)
		y := tensor.Uniform(rng, n, 2, -3, 3)
		px := spmm(p, x)
		pty := spmmT(p, y)
		lhs, rhs := 0.0, 0.0
		for i := range px.Data {
			lhs += px.Data[i] * y.Data[i]
			rhs += x.Data[i] * pty.Data[i]
		}
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropagatorSelfLoop(t *testing.T) {
	g := NewDirected(2)
	g.AddEdge(0, 0) // explicit self loop stacks with identity: Ā₀₀ = 2
	g.AddEdge(0, 1)
	p := NewCSR(g).Dense()
	if math.Abs(p.At(0, 0)-2.0/3.0) > 1e-12 {
		t.Fatalf("P[0][0] = %v, want 2/3", p.At(0, 0))
	}
	if math.Abs(p.At(0, 1)-1.0/3.0) > 1e-12 {
		t.Fatalf("P[0][1] = %v, want 1/3", p.At(0, 1))
	}
	if p.At(1, 1) != 1 {
		t.Fatalf("P[1][1] = %v, want 1 (isolated vertex keeps itself)", p.At(1, 1))
	}
}

func TestBFSOrder(t *testing.T) {
	g := paperSampleGraph()
	order := g.BFSOrder(0)
	if len(order) != 5 {
		t.Fatalf("reachable = %d, want 5", len(order))
	}
	if order[0] != 0 {
		t.Fatalf("BFS must start at 0, got %v", order)
	}
	// Level 1 is {1, 4} in sorted order.
	if order[1] != 1 || order[2] != 4 {
		t.Fatalf("BFS level 1 = %v", order[1:3])
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := NewDirected(4)
	g.AddEdge(0, 1)
	// 2, 3 disconnected.
	if got := g.ReachableFrom(0); got != 2 {
		t.Fatalf("reachable from 0 = %d, want 2", got)
	}
	if got := g.BFSOrder(-1); got != nil {
		t.Fatalf("BFS from invalid start = %v, want nil", got)
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g := NewDirected(3)
	g.AddEdge(2, 0)
	g.AddEdge(0, 2)
	g.AddEdge(0, 1)
	es := g.Edges()
	want := [][2]int{{0, 1}, {0, 2}, {2, 0}}
	if len(es) != len(want) {
		t.Fatalf("edges = %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("edges[%d] = %v, want %v", i, es[i], want[i])
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewDirected(0)
	if g.N() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph invariants")
	}
	p := NewCSR(g)
	out := spmm(p, tensor.New(0, 3))
	if out.Rows != 0 || out.Cols != 3 {
		t.Fatalf("propagate empty: %dx%d", out.Rows, out.Cols)
	}
}
