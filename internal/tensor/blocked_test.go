package tensor

import (
	"math/rand"
	"testing"
)

// Differential harness for the fast matmul kernels: every target drives a
// kernel and its naive oracle over the same inputs — through a dirty
// workspace destination — and requires bit-for-bit equality. The oracles
// (oracle.go) are the operational definition of the per-cell accumulation
// order, so any kernel change that reorders a single addition fails here
// before it can disturb the trainer's golden checksum.
//
// The fuzz dims deliberately straddle the kernels' boundaries: the AVX2
// matmul runs 32 columns at a time, then 4, and leaves the last 1–3 to Go;
// matMulTABlocked blocks 4 columns, matMulTBBlocked walks b two rows at a
// time. Widths 1..48 exercise whole blocks plus every remainder width.
// The deterministic TestBlockedMatMulCrossesKTiles pins inner dimensions
// around 256 and past 512, which fuzzing at practical sizes rarely
// reaches.

func dims48(v uint8) int { return 1 + int(v)%48 }

// FuzzBlockedMatMulInto runs MatMulInto on each kernel path over 1–48
// rows, inner dimensions 0–382 and 1–40 columns, with ±0, NaN, ±Inf and
// subnormals in a, b or both as the seed's low bits say (see operands).
func FuzzBlockedMatMulInto(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(4))
	f.Add(int64(7), uint8(0), uint8(0), uint8(0))
	f.Add(int64(11), uint8(16), uint8(47), uint8(8))
	f.Add(int64(42), uint8(31), uint8(9), uint8(40))
	f.Add(int64(5), uint8(46), uint8(171), uint8(31))  // k = 256, 32 columns
	f.Add(int64(9), uint8(203), uint8(7), uint8(35))   // k = 10, 36 columns
	f.Add(int64(13), uint8(20), uint8(200), uint8(33)) // k = 300, special a, finite b
	f.Fuzz(func(t *testing.T, seed int64, ar, ac, bc uint8) {
		forEachKernelPath(func(path string) {
			rng := rand.New(rand.NewSource(seed))
			a, b := operands(rng, seed, dims48(ar), int(ac)*3/2, 1+int(bc)%40)
			ws := NewWorkspace()
			dst := dirtyDst(ws, rng, a.Rows, b.Cols)
			MatMulInto(dst, a, b)
			want := New(a.Rows, b.Cols)
			MatMulNaiveInto(want, a, b)
			requireBitEqual(t, dst, want, path+" matmul vs naive oracle")
		})
	})
}

func FuzzBlockedMatMulTAInto(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(4))
	f.Add(int64(9), uint8(40), uint8(5), uint8(11))
	f.Add(int64(13), uint8(1), uint8(47), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n, ac, bc uint8) {
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, dims48(n), dims48(ac))
		b := randMatrix(rng, dims48(n), dims48(bc))
		ws := NewWorkspace()
		dst := dirtyDst(ws, rng, a.Cols, b.Cols)
		matMulTABlocked(dst, a, b)
		want := New(a.Cols, b.Cols)
		MatMulTANaiveInto(want, a, b)
		requireBitEqual(t, dst, want, "blocked matmul-ta vs naive oracle")
	})
}

func FuzzBlockedMatMulTBInto(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(4))
	f.Add(int64(17), uint8(7), uint8(33), uint8(6))
	f.Add(int64(23), uint8(48), uint8(2), uint8(47))
	f.Fuzz(func(t *testing.T, seed int64, ar, k, br uint8) {
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, dims48(ar), dims48(k))
		b := randMatrix(rng, dims48(br), dims48(k))
		ws := NewWorkspace()
		dst := dirtyDst(ws, rng, a.Rows, b.Rows)
		matMulTBBlocked(dst, a, b)
		want := New(a.Rows, b.Rows)
		MatMulTBNaiveInto(want, a, b)
		requireBitEqual(t, dst, want, "blocked matmul-tb vs naive oracle")
	})
}

// TestBlockedMatMulCrossesKTiles pins bit-identity at inner dimensions
// around 256 and past 512, on each MatMulInto path and for the transposed
// kernels: each cell's chain must run uninterrupted over every k.
func TestBlockedMatMulCrossesKTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, k := range []int{255, 256, 257, 517} {
		a := randMatrix(rng, 3, k)
		b := randMatrix(rng, k, 39)
		forEachKernelPath(func(path string) {
			dst := New(3, 39)
			MatMulInto(dst, a, b)
			want := New(3, 39)
			MatMulNaiveInto(want, a, b)
			requireBitEqual(t, dst, want, path+" k-tile crossing matmul")
		})

		ta := randMatrix(rng, k, 5)
		tb := randMatrix(rng, k, 11)
		dstTA := New(5, 11)
		matMulTABlocked(dstTA, ta, tb)
		wantTA := New(5, 11)
		MatMulTANaiveInto(wantTA, ta, tb)
		requireBitEqual(t, dstTA, wantTA, "k-tile crossing matmul-ta")

		ba := randMatrix(rng, 4, k)
		bb := randMatrix(rng, 7, k)
		dstTB := New(4, 7)
		matMulTBBlocked(dstTB, ba, bb)
		wantTB := New(4, 7)
		MatMulTBNaiveInto(wantTB, ba, bb)
		requireBitEqual(t, dstTB, wantTB, "k-tile crossing matmul-tb")
	}
}

// TestNaiveOraclesShareValidation proves the oracles sit behind the same
// dimension and aliasing panics as the dispatchers, so the fuzz harness
// cannot silently compare mismatched shapes.
func TestNaiveOraclesShareValidation(t *testing.T) {
	a, b := New(2, 3), New(3, 4)
	cases := []struct {
		name string
		fn   func()
	}{
		{"naive matmul wrong dst", func() { MatMulNaiveInto(New(2, 3), a, b) }},
		{"naive matmul dst aliases a", func() { MatMulNaiveInto(a, a, New(3, 3)) }},
		{"naive matmul-ta wrong dst", func() { MatMulTANaiveInto(New(2, 2), a, New(2, 4)) }},
		{"naive matmul-ta dst aliases b", func() { sq := New(4, 4); MatMulTANaiveInto(sq, New(4, 4), sq) }},
		{"naive matmul-tb wrong dst", func() { MatMulTBNaiveInto(New(1, 1), a, New(4, 3)) }},
		{"naive matmul-tb dst aliases a", func() { sq := New(3, 3); MatMulTBNaiveInto(sq, sq, New(3, 3)) }},
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
