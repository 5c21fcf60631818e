package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// CSR is the normalized propagation operator P = D̄⁻¹Ā of one graph in
// compressed sparse row form, so graph convolutions evaluate P·X without
// materializing dense n×n matrices. Row i's nonzeros live at indices
// rowptr[i]..rowptr[i+1] of col/val, with columns strictly ascending
// within a row; the three flat arrays keep pointer indirections out of the
// SpMM inner loop and make the whole operator two cache-friendly streams.
//
// Construction is pinned bit for bit (the golden model checksum depends on
// it): row i holds 1/D̄ᵢᵢ at column i and at every successor column, an explicit
// self loop stacks with the identity term, and each weight is produced by
// the division w/deg (not a multiplication by a precomputed reciprocal,
// which could round differently). The round-trip property tests in
// csr_test.go hold CSR to Directed.AugmentedAdjacency.
//
// A built CSR is immutable through its query methods and therefore safe
// for concurrent readers; Rebuild mutates and must not race with them.
type CSR struct {
	n      int
	rowptr []int
	col    []int
	val    []float64
}

// NewCSR builds the propagation operator for g.
func NewCSR(g *Directed) *CSR {
	c := &CSR{}
	c.Rebuild(g)
	return c
}

// Rebuild re-derives the operator from g in place, reusing the receiver's
// arrays when their capacity suffices — after a warm-up build at the
// largest graph size, rebuilding for another graph allocates nothing
// (TestCSRBuildZeroAllocSteadyState pins this). Succ lists are sorted, so
// rows are assembled in one merge pass without sorting.
func (c *CSR) Rebuild(g *Directed) {
	n := g.n
	c.n = n
	if cap(c.rowptr) < n+1 {
		c.rowptr = make([]int, 0, n+1)
	}
	c.rowptr = c.rowptr[:0]
	c.col = c.col[:0]
	c.val = c.val[:0]
	c.rowptr = append(c.rowptr, 0)
	for u := 0; u < n; u++ {
		succ := g.Succ(u)
		// Ā row u: the identity term plus every successor, with an explicit
		// self loop folded into the diagonal weight. D̄ᵤᵤ counts each
		// successor once plus the identity.
		selfWeight := 1.0
		for _, v := range succ {
			if v == u {
				selfWeight++
			}
		}
		deg := float64(len(succ)) + 1
		placed := false
		for _, v := range succ {
			if v == u {
				continue
			}
			if !placed && u < v {
				c.col = append(c.col, u)
				c.val = append(c.val, selfWeight/deg)
				placed = true
			}
			c.col = append(c.col, v)
			c.val = append(c.val, 1/deg)
		}
		if !placed {
			c.col = append(c.col, u)
			c.val = append(c.val, selfWeight/deg)
		}
		c.rowptr = append(c.rowptr, len(c.col))
	}
}

// N returns the number of vertices the operator acts on.
func (c *CSR) N() int { return c.n }

// NNZ returns the number of stored nonzeros.
func (c *CSR) NNZ() int { return len(c.col) }

// Row returns row i's column indices (strictly ascending) and weights as
// views into the operator's storage. Callers must treat both slices as
// read-only; the attention conv backend walks rows this way to visit each
// vertex's augmented-adjacency neighborhood in a fixed order.
func (c *CSR) Row(i int) ([]int, []float64) {
	lo, hi := c.rowptr[i], c.rowptr[i+1]
	return c.col[lo:hi], c.val[lo:hi]
}

// checkSpMM validates one sparse-dense product's operands. dst must not
// alias x: the kernels zero or overwrite dst while still reading x.
func (c *CSR) checkSpMM(dst, x *tensor.Matrix, op string) {
	if x.Rows != c.n {
		panic(fmt.Sprintf("graph: %s n=%d applied to %d-row matrix", op, c.n, x.Rows))
	}
	if dst.Rows != c.n || dst.Cols != x.Cols {
		panic(fmt.Sprintf("graph: %s destination %dx%d, want %dx%d", op, dst.Rows, dst.Cols, c.n, x.Cols))
	}
	if len(dst.Data) > 0 && len(x.Data) > 0 && &dst.Data[0] == &x.Data[0] {
		panic(fmt.Sprintf("graph: %s destination aliases the operand", op))
	}
}

// SpMMInto computes dst = P·x for an n×c dense matrix x. dst must be n×c
// and may hold garbage on entry; it must not alias x. Per destination cell
// the weighted rows of x are accumulated in ascending column order —
// exactly the order the dense oracle (Ā row walk with zero entries
// skipped) produces, which FuzzSpMMInto holds it to bit for bit.
func (c *CSR) SpMMInto(dst, x *tensor.Matrix) {
	c.checkSpMM(dst, x, "spmm")
	cols := x.Cols
	dst.Zero()
	// Accumulate onto the zeroed destination rather than writing the first
	// term directly: 0 + w·v and w·v differ in the sign of a -0.0 product,
	// and the bit-determinism contract is the accumulating chain.
	for i := 0; i < c.n; i++ {
		orow := dst.Data[i*cols : (i+1)*cols]
		for idx := c.rowptr[i]; idx < c.rowptr[i+1]; idx++ {
			w := c.val[idx]
			xrow := x.Data[c.col[idx]*cols:]
			xrow = xrow[:cols:cols]
			for t, v := range xrow {
				orow[t] += w * v
			}
		}
	}
}

// SpMMTInto computes dst = Pᵀ·x under the same destination contract as
// SpMMInto, scattering row i of x into every column-row P touches — the
// backward counterpart used for ∂L/∂X = Pᵀ·(∂L/∂Y).
func (c *CSR) SpMMTInto(dst, x *tensor.Matrix) {
	c.checkSpMM(dst, x, "spmm-t")
	cols := x.Cols
	dst.Zero()
	for i := 0; i < c.n; i++ {
		xrow := x.Data[i*cols : (i+1)*cols]
		for idx := c.rowptr[i]; idx < c.rowptr[i+1]; idx++ {
			w := c.val[idx]
			orow := dst.Data[c.col[idx]*cols:]
			orow = orow[:cols:cols]
			for t, v := range xrow {
				orow[t] += w * v
			}
		}
	}
}

// Dense materializes P as a dense matrix, for tests and the paper's worked
// examples.
func (c *CSR) Dense() *tensor.Matrix {
	m := tensor.New(c.n, c.n)
	for i := 0; i < c.n; i++ {
		for idx := c.rowptr[i]; idx < c.rowptr[i+1]; idx++ {
			m.Set(i, c.col[idx], c.val[idx])
		}
	}
	return m
}
