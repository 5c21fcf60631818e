package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The destination-passing kernels promise bit-identity with independent
// references — the naive oracles of oracle.go for the products, per-element
// loops written here for the elementwise kernels — not approximate equality.
// The differential tests below therefore compare raw float64 bit patterns,
// and they deliberately run the kernels on DIRTY workspace buffers (reused
// across Reset cycles, pre-filled with garbage) while each reference writes
// a fresh one, to prove the full-define contract: no stale element survives.

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0:
			m.Data[i] = 0 // exercise the av == 0 skip paths
		case 1:
			m.Data[i] = rng.NormFloat64() * 1e-12
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func requireBitEqual(t *testing.T, got, want *Matrix, op string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", op, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: element %d = %x, want %x (values %g vs %g)",
				op, i, math.Float64bits(got.Data[i]), math.Float64bits(v), got.Data[i], v)
		}
	}
}

// dirtyDst checks a matrix out of ws and fills it with garbage, simulating
// the worst-case reuse a steady-state training loop produces.
func dirtyDst(ws *Workspace, rng *rand.Rand, r, c int) *Matrix {
	dst := ws.Matrix(r, c)
	for i := range dst.Data {
		dst.Data[i] = rng.NormFloat64() * 1e6
	}
	return dst
}

func dims(v uint8) int { return 1 + int(v)%7 }

func FuzzMatMulInto(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(4))
	f.Add(int64(7), uint8(1), uint8(1), uint8(1))
	f.Add(int64(42), uint8(6), uint8(5), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, ar, ac, bc uint8) {
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, dims(ar), dims(ac))
		b := randMatrix(rng, dims(ac), dims(bc))
		ws := NewWorkspace()
		// Dirty the pool: a prior checkout of the same size leaves garbage.
		dirtyDst(ws, rng, a.Rows, b.Cols)
		ws.Reset()
		dst := ws.Matrix(a.Rows, b.Cols)
		MatMulInto(dst, a, b)
		want := New(a.Rows, b.Cols)
		MatMulNaiveInto(want, a, b)
		requireBitEqual(t, dst, want, "matmul")
	})
}

func FuzzMatMulTAInto(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(4))
	f.Add(int64(9), uint8(5), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n, ac, bc uint8) {
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, dims(n), dims(ac))
		b := randMatrix(rng, dims(n), dims(bc))
		ws := NewWorkspace()
		dirtyDst(ws, rng, a.Cols, b.Cols)
		ws.Reset()
		dst := ws.Matrix(a.Cols, b.Cols)
		MatMulTAInto(dst, a, b)
		want := New(a.Cols, b.Cols)
		MatMulTANaiveInto(want, a, b)
		requireBitEqual(t, dst, want, "matmul-ta")
	})
}

func FuzzMatMulTBInto(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(4))
	f.Add(int64(13), uint8(1), uint8(6), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, ar, k, br uint8) {
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, dims(ar), dims(k))
		b := randMatrix(rng, dims(br), dims(k))
		ws := NewWorkspace()
		dirtyDst(ws, rng, a.Rows, b.Rows)
		ws.Reset()
		dst := ws.Matrix(a.Rows, b.Rows)
		MatMulTBInto(dst, a, b)
		want := New(a.Rows, b.Rows)
		MatMulTBNaiveInto(want, a, b)
		requireBitEqual(t, dst, want, "matmul-tb")
	})
}

func FuzzElementwiseInto(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3))
	f.Add(int64(5), uint8(4), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, r, c uint8) {
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, dims(r), dims(c))
		b := randMatrix(rng, dims(r), dims(c))
		ws := NewWorkspace()

		sum := New(a.Rows, a.Cols)
		exp := New(a.Rows, a.Cols)
		for i, v := range a.Data {
			sum.Data[i] = v + b.Data[i]
			exp.Data[i] = math.Exp(v)
		}

		dst := dirtyDst(ws, rng, a.Rows, a.Cols)
		AddInto(dst, a, b)
		requireBitEqual(t, dst, sum, "add")

		MapInto(dst, a, math.Exp)
		requireBitEqual(t, dst, exp, "map")

		// Aliased destination: dst == a must still be exact for the
		// elementwise kernels, which advertise alias safety.
		ac := a.Clone()
		AddInto(ac, ac, b)
		requireBitEqual(t, ac, sum, "add aliased")
		bc := b.Clone()
		AddInto(bc, a, bc)
		requireBitEqual(t, bc, sum, "add aliased to b")
		mc := a.Clone()
		MapInto(mc, mc, math.Exp)
		requireBitEqual(t, mc, exp, "map aliased")
	})
}

func TestConcatAndSliceInto(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randMatrix(rng, 4, 3)
	b := randMatrix(rng, 4, 5)
	c := randMatrix(rng, 4, 2)
	ws := NewWorkspace()
	dst := dirtyDst(ws, rng, 4, 10)
	HConcatInto(dst, a, b, c)
	requireBitEqual(t, dst, HConcat(a, b, c), "hconcat")

	sl := dirtyDst(ws, rng, 4, 4)
	SliceColsInto(sl, dst, 3, 7)
	requireBitEqual(t, sl, dst.SliceCols(3, 7), "slice cols")
}

func TestIntoKernelsPanicOnBadDst(t *testing.T) {
	a, b := New(2, 3), New(3, 4)
	cases := []struct {
		name string
		fn   func()
	}{
		{"matmul wrong dst", func() { MatMulInto(New(2, 3), a, b) }},
		{"matmul inner mismatch", func() { MatMulInto(New(2, 2), a, New(2, 2)) }},
		{"matmul dst aliases a", func() { MatMulInto(a, a, New(3, 3)) }},
		{"matmul dst aliases b", func() { MatMulInto(b, New(4, 3), b) }},
		{"matmul-ta wrong dst", func() { MatMulTAInto(New(2, 2), a, New(2, 4)) }},
		{"matmul-tb wrong dst", func() { MatMulTBInto(New(1, 1), a, New(4, 3)) }},
		{"add wrong dst", func() { AddInto(New(1, 1), a, New(2, 3)) }},
		{"hconcat wrong dst", func() { HConcatInto(New(2, 5), a, a) }},
		{"slice out of range", func() { SliceColsInto(New(2, 2), a, 2, 5) }},
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

func TestIntoKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randMatrix(rng, 16, 12)
	b := randMatrix(rng, 12, 8)
	e := randMatrix(rng, 16, 12)
	dstMM := New(16, 8)
	dstTA := New(12, 12)
	dstTB := New(16, 16)
	dstEl := New(16, 12)
	bT := randMatrix(rng, 16, 12)
	kernels := []struct {
		name string
		fn   func()
	}{
		{"MatMulInto", func() { MatMulInto(dstMM, a, b) }},
		{"MatMulTAInto", func() { MatMulTAInto(dstTA, a, e) }},
		{"MatMulTBInto", func() { MatMulTBInto(dstTB, a, bT) }},
		{"AddInto", func() { AddInto(dstEl, a, e) }},
		{"MapInto", func() { MapInto(dstEl, a, math.Abs) }},
		{"HConcatInto", func() { HConcatInto(New(16, 24), a, e) }},
	}
	for _, k := range kernels {
		if k.name == "HConcatInto" {
			continue // its dst is built inside the closure on purpose below
		}
		if allocs := testing.AllocsPerRun(10, k.fn); allocs > 0 {
			t.Errorf("%s allocated %.1f objects per call, want 0", k.name, allocs)
		}
	}
	dstHC := New(16, 24)
	operands := []*Matrix{a, e}
	if allocs := testing.AllocsPerRun(10, func() { HConcatInto(dstHC, operands...) }); allocs > 0 {
		t.Errorf("HConcatInto allocated %.1f objects per call, want 0", allocs)
	}
}
