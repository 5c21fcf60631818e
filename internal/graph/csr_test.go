package graph

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// The CSR tests hold the sparse operator to the dense definition
// P = D̄⁻¹Ā exactly as the golden model checksum froze it: every weight is
// the division Āᵢⱼ/D̄ᵢᵢ, and every SpMM destination cell accumulates its
// terms in ascending column order with zero entries of Ā skipped. The
// oracles below re-derive that chain from Directed's dense matrices, so a
// CSR construction or kernel change that perturbs a single bit fails here.

// randGraph builds a random graph with n vertices: each vertex gains a few
// random successors (self loops included), leaving some vertices isolated.
func randGraph(rng *rand.Rand, n int) *Directed {
	g := NewDirected(n)
	for u := 0; u < n; u++ {
		if rng.Intn(4) == 0 {
			continue // isolated vertex (no out-edges)
		}
		for e := rng.Intn(5); e > 0; e-- {
			g.AddEdge(u, rng.Intn(n)) // may be a self loop
		}
	}
	return g
}

func randDense(rng *rand.Rand, r, c int) *tensor.Matrix {
	m := tensor.New(r, c)
	for i := range m.Data {
		if rng.Intn(8) == 0 {
			m.Data[i] = 0
		} else {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// spmmOracle computes P·x from the dense augmented adjacency: per
// destination cell, terms accumulate in ascending j with Āᵢⱼ = 0 skipped
// and each weight produced by the division Āᵢⱼ/deg — the exact chain
// SpMMInto promises.
func spmmOracle(g *Directed, x *tensor.Matrix) *tensor.Matrix {
	abar := g.AugmentedAdjacency()
	deg := g.AugmentedDegrees()
	out := tensor.New(g.N(), x.Cols)
	for i := 0; i < g.N(); i++ {
		orow := out.Row(i)
		for j := 0; j < g.N(); j++ {
			av := abar.At(i, j)
			if av == 0 {
				continue
			}
			w := av / deg[i]
			xrow := x.Row(j)
			for t, v := range xrow {
				orow[t] += w * v
			}
		}
	}
	return out
}

// spmmTOracle computes Pᵀ·x with the same scatter order as SpMMTInto: rows
// i of P visited in ascending order, each scattering into destination row j.
func spmmTOracle(g *Directed, x *tensor.Matrix) *tensor.Matrix {
	abar := g.AugmentedAdjacency()
	deg := g.AugmentedDegrees()
	out := tensor.New(g.N(), x.Cols)
	for i := 0; i < g.N(); i++ {
		xrow := x.Row(i)
		for j := 0; j < g.N(); j++ {
			av := abar.At(i, j)
			if av == 0 {
				continue
			}
			w := av / deg[i]
			orow := out.Row(j)
			for t, v := range xrow {
				orow[t] += w * v
			}
		}
	}
	return out
}

func requireBitEqualMatrix(t *testing.T, got, want *tensor.Matrix, op string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", op, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: element %d = %g (%x), want %g (%x)",
				op, i, got.Data[i], math.Float64bits(got.Data[i]), v, math.Float64bits(v))
		}
	}
}

// dirtyMatrix returns a matrix pre-filled with garbage, standing in for a
// reused workspace checkout.
func dirtyMatrix(rng *rand.Rand, r, c int) *tensor.Matrix {
	m := tensor.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * 1e6
	}
	return m
}

func FuzzSpMMInto(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(3))
	f.Add(int64(7), uint8(1), uint8(1))
	f.Add(int64(13), uint8(24), uint8(9))
	f.Add(int64(42), uint8(40), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, colsRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%40
		cols := 1 + int(colsRaw)%12
		g := randGraph(rng, n)
		x := randDense(rng, n, cols)
		c := NewCSR(g)

		dst := dirtyMatrix(rng, n, cols)
		c.SpMMInto(dst, x)
		requireBitEqualMatrix(t, dst, spmmOracle(g, x), "spmm vs dense oracle")

		dstT := dirtyMatrix(rng, n, cols)
		c.SpMMTInto(dstT, x)
		requireBitEqualMatrix(t, dstT, spmmTOracle(g, x), "spmm-t vs dense oracle")

		// Rebuild reuse must produce the identical operator: rebuild for a
		// different graph first, then back, and re-check one product.
		c.Rebuild(randGraph(rng, 1+int(nRaw)%7))
		c.Rebuild(g)
		c.SpMMInto(dst, x)
		requireBitEqualMatrix(t, dst, spmmOracle(g, x), "spmm after rebuild")
	})
}

// TestCSRRoundTripDense holds the CSR construction to the dense definition
// for a spread of random graphs: Dense() must reproduce D̄⁻¹Ā element for
// element, bit for bit, and the stored structure must be minimal (one entry
// per nonzero of Ā, columns strictly ascending).
func TestCSRRoundTripDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		g := randGraph(rng, 1+rng.Intn(30))
		c := NewCSR(g)
		abar := g.AugmentedAdjacency()
		deg := g.AugmentedDegrees()
		want := tensor.New(g.N(), g.N())
		nnz := 0
		for i := 0; i < g.N(); i++ {
			for j := 0; j < g.N(); j++ {
				if av := abar.At(i, j); av != 0 {
					want.Set(i, j, av/deg[i])
					nnz++
				}
			}
		}
		requireBitEqualMatrix(t, c.Dense(), want, "csr dense round-trip")
		if c.N() != g.N() {
			t.Fatalf("N() = %d, want %d", c.N(), g.N())
		}
		if c.NNZ() != nnz {
			t.Fatalf("NNZ() = %d, want %d stored nonzeros", c.NNZ(), nnz)
		}
		for i := 0; i < c.n; i++ {
			for idx := c.rowptr[i] + 1; idx < c.rowptr[i+1]; idx++ {
				if c.col[idx-1] >= c.col[idx] {
					t.Fatalf("row %d columns not strictly ascending: %v", i, c.col[c.rowptr[i]:c.rowptr[i+1]])
				}
			}
		}
	}
}

// TestCSRDegenerateGraphs covers the structural corner cases: the empty
// graph, a single vertex, self loops stacking with the identity term, and
// isolated vertices inside a larger graph.
func TestCSRDegenerateGraphs(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		c := NewCSR(NewDirected(0))
		if c.N() != 0 || c.NNZ() != 0 {
			t.Fatalf("empty graph: N=%d NNZ=%d, want 0/0", c.N(), c.NNZ())
		}
		dst := tensor.New(0, 3)
		c.SpMMInto(dst, tensor.New(0, 3)) // must not panic
	})
	t.Run("single vertex", func(t *testing.T) {
		c := NewCSR(NewDirected(1))
		if c.NNZ() != 1 || c.val[0] != 1 {
			t.Fatalf("single vertex: NNZ=%d val=%v, want the identity row", c.NNZ(), c.val)
		}
	})
	t.Run("self loop stacks with identity", func(t *testing.T) {
		g := NewDirected(2)
		g.AddEdge(0, 0)
		g.AddEdge(0, 1)
		c := NewCSR(g)
		// Row 0: Ā₀₀ = 2 (loop + identity), Ā₀₁ = 1, deg = 3.
		d := c.Dense()
		if d.At(0, 0) != 2.0/3.0 || d.At(0, 1) != 1.0/3.0 {
			t.Fatalf("self-loop row = [%g %g], want [2/3 1/3]", d.At(0, 0), d.At(0, 1))
		}
		if d.At(1, 1) != 1 {
			t.Fatalf("isolated row diagonal = %g, want 1", d.At(1, 1))
		}
	})
	t.Run("isolated vertices", func(t *testing.T) {
		g := NewDirected(4)
		g.AddEdge(1, 2)
		c := NewCSR(g)
		x := tensor.New(4, 2)
		for i := range x.Data {
			x.Data[i] = float64(i + 1)
		}
		out := tensor.New(4, 2)
		c.SpMMInto(out, x)
		// Isolated vertices propagate only themselves: P row is eᵢ.
		for _, i := range []int{0, 2, 3} {
			for j := 0; j < 2; j++ {
				if out.At(i, j) != x.At(i, j) {
					t.Fatalf("isolated vertex %d: out=%g want %g", i, out.At(i, j), x.At(i, j))
				}
			}
		}
	})
}

// TestCSRConcurrentReaders drives one built CSR from many goroutines at
// once — the data-parallel prediction engine's access pattern — so the race
// detector can certify the advertised read-only safety.
func TestCSRConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randGraph(rng, 25)
	c := NewCSR(g)
	x := randDense(rng, 25, 6)
	want := spmmOracle(g, x)
	wantT := spmmTOracle(g, x)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := tensor.New(25, 6)
			for rep := 0; rep < 20; rep++ {
				c.SpMMInto(dst, x)
				c.SpMMTInto(dst, x)
			}
			requireBitEqualMatrix(t, dst, wantT, "concurrent spmm-t")
			c.SpMMInto(dst, x)
			requireBitEqualMatrix(t, dst, want, "concurrent spmm")
		}()
	}
	wg.Wait()
}

// TestCSRBuildZeroAllocSteadyState pins the Rebuild reuse contract: after a
// warm-up build at the largest size, rebuilding for any smaller graph
// touches no allocator.
func TestCSRBuildZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	big := randGraph(rng, 60)
	graphs := make([]*Directed, 8)
	for i := range graphs {
		graphs[i] = randGraph(rng, 5+rng.Intn(50))
	}
	c := NewCSR(big)
	i := 0
	allocs := testing.AllocsPerRun(32, func() {
		c.Rebuild(graphs[i%len(graphs)])
		i++
	})
	if allocs > 0 {
		t.Errorf("steady-state Rebuild allocated %.1f objects per call, want 0", allocs)
	}
}

// TestSpMMPanics covers the destination contract: dimension mismatches and
// aliased destinations must be rejected for both kernels.
func TestSpMMPanics(t *testing.T) {
	g := NewDirected(3)
	g.AddEdge(0, 1)
	c := NewCSR(g)
	x := tensor.New(3, 2)
	cases := []struct {
		name string
		fn   func()
	}{
		{"spmm wrong rows", func() { c.SpMMInto(tensor.New(2, 2), x) }},
		{"spmm wrong cols", func() { c.SpMMInto(tensor.New(3, 3), x) }},
		{"spmm wrong operand", func() { c.SpMMInto(tensor.New(3, 2), tensor.New(4, 2)) }},
		{"spmm aliased", func() { c.SpMMInto(x, x) }},
		{"spmm-t wrong dst", func() { c.SpMMTInto(tensor.New(3, 1), x) }},
		{"spmm-t aliased", func() { c.SpMMTInto(x, x) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}
