package tensor

import "fmt"

// This file holds the destination-passing forms of the package's kernels.
// Every *Into function writes its complete result into a caller-supplied
// destination matrix — no element of dst survives from before the call, so
// dirty scratch buffers from a Workspace are valid destinations — and
// panics when dst has the wrong shape, because a shape mismatch is always a
// programming error here, never a runtime condition.
//
// The matmul kernels' references are the straight-loop oracles of
// oracle.go; the differential fuzz tests in into_test.go hold every kernel
// to its reference bit for bit on dirty destinations — the property the
// trainer's bit-determinism contract rests on.

// sameBuffer reports whether two matrices share a backing array. The check
// compares head pointers: that is exact for this package, where buffers are
// either freshly allocated or whole-buffer Workspace checkouts, never
// partially overlapping re-slices.
func sameBuffer(a, b *Matrix) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// mustDims panics unless dst is rows×cols.
func mustDims(dst *Matrix, rows, cols int, op string) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("tensor: %s destination %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}

// checkMatMul validates the operands of dst = a·b: inner dimensions must
// agree, dst must be a.Rows×b.Cols, and dst must not alias an operand (the
// kernels zero or overwrite dst, so aliasing would corrupt an operand
// mid-product).
func checkMatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustDims(dst, a.Rows, b.Cols, "matmul")
	if sameBuffer(dst, a) || sameBuffer(dst, b) {
		panic("tensor: matmul destination aliases an operand")
	}
}

// checkMatMulTA validates the operands of dst = aᵀ·b.
func checkMatMulTA(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmul-ta %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustDims(dst, a.Cols, b.Cols, "matmul-ta")
	if sameBuffer(dst, a) || sameBuffer(dst, b) {
		panic("tensor: matmul-ta destination aliases an operand")
	}
}

// checkMatMulTB validates the operands of dst = a·bᵀ.
func checkMatMulTB(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul-tb %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustDims(dst, a.Rows, b.Rows, "matmul-tb")
	if sameBuffer(dst, a) || sameBuffer(dst, b) {
		panic("tensor: matmul-tb destination aliases an operand")
	}
}

// MatMulInto computes dst = a·b with the blocked kernel of blocked.go. The
// result is bit-for-bit MatMulNaiveInto's: per destination cell the products
// are summed over k strictly ascending with zero a[i][k] terms skipped. It
// panics if the inner dimensions disagree, if dst is not a.Rows×b.Cols, or
// if dst aliases a or b.
func MatMulInto(dst, a, b *Matrix) {
	checkMatMul(dst, a, b)
	matMulBlocked(dst, a, b)
}

// MatMulTAInto computes dst = aᵀ·b without materializing aᵀ. Contribution
// order per destination element is ascending over a's rows, so the result
// is bit-for-bit MatMulTANaiveInto's.
func MatMulTAInto(dst, a, b *Matrix) {
	checkMatMulTA(dst, a, b)
	matMulTABlocked(dst, a, b)
}

// MatMulTBInto computes dst = a·bᵀ without materializing bᵀ. The summation
// order per destination element matches MatMulTBNaiveInto's exactly.
func MatMulTBInto(dst, a, b *Matrix) {
	checkMatMulTB(dst, a, b)
	matMulTBBlocked(dst, a, b)
}

// AddInto computes dst = a+b elementwise. dst may alias a or b.
func AddInto(dst, a, b *Matrix) {
	mustSameShape(a, b, "add")
	mustDims(dst, a.Rows, a.Cols, "add")
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
}

// MapInto computes dst[i] = f(m[i]) elementwise. dst may alias m.
func MapInto(dst, m *Matrix, f func(float64) float64) {
	mustDims(dst, m.Rows, m.Cols, "map")
	for i, v := range m.Data {
		dst.Data[i] = f(v)
	}
}

// HConcatInto concatenates the given matrices horizontally into dst, which
// must have the operands' shared row count and their summed column count.
func HConcatInto(dst *Matrix, ms ...*Matrix) {
	rows, cols := 0, 0
	if len(ms) > 0 {
		rows = ms[0].Rows
	}
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("tensor: hconcat row mismatch %d vs %d", m.Rows, rows))
		}
		cols += m.Cols
	}
	mustDims(dst, rows, cols, "hconcat")
	for i := 0; i < rows; i++ {
		orow := dst.Row(i)
		off := 0
		for _, m := range ms {
			copy(orow[off:off+m.Cols], m.Row(i))
			off += m.Cols
		}
	}
}

// SliceColsInto copies columns [lo, hi) of m into dst (m.Rows × hi-lo).
func SliceColsInto(dst, m *Matrix, lo, hi int) {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: slice cols [%d,%d) of %d", lo, hi, m.Cols))
	}
	mustDims(dst, m.Rows, hi-lo, "slice cols")
	for i := 0; i < m.Rows; i++ {
		copy(dst.Row(i), m.Row(i)[lo:hi])
	}
}
