package nn

import (
	"math"
	"math/rand"
	"testing"
)

// Value regimes of the kernel differential.
const (
	kernTanh    = iota // (−1, 1): what the graph-conv stack feeds the head
	kernSpecial        // ±0, subnormals, ±Inf, NaN, ±MaxFloat64 and normals, mixed
	kernTies           // {−1, −0, +0, 1}: repeated maxima and zero-sign ties
	kernModes
)

// x86's default NaN, the one invalid operations (Inf·0, Inf − Inf) produce.
// The conv differential injects only this NaN: when two NaNs with different
// bits meet in an add, the result carries the first operand's, and which
// operand gc puts first in the Go loop is a register-allocation accident.
// With one NaN pattern in play every order gives the same bits.
const x86DefaultNaN = 0xfff8000000000000

// windowNaNs are the NaNs the window differential injects. The fold never
// computes with a NaN, only compares and copies it, so any payload —
// signalling ones included — must come out bit for bit.
var windowNaNs = [...]uint64{x86DefaultNaN, 0x7ff8000000000001, 0x7ff0000000000001, 0xfff0dead0000beef}

func kernelValue(rng *rand.Rand, mode int, nans []uint64) float64 {
	switch mode {
	case kernTanh:
		return math.Tanh(2 * rng.NormFloat64())
	case kernTies:
		return [...]float64{-1, math.Copysign(0, -1), 0, 1}[rng.Intn(4)]
	}
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(1) // smallest subnormal
	case 3:
		return -math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // a negative subnormal
	case 4:
		return math.Inf(1)
	case 5:
		return math.Inf(-1)
	case 6:
		return math.Float64frombits(nans[rng.Intn(len(nans))])
	case 7:
		return math.MaxFloat64 * float64(2*rng.Intn(2)-1)
	}
	return rng.NormFloat64()
}

// FuzzConvAMPKernels holds the two SSE2 kernels behind ConvAMP.Forward to
// the Go loops they replace, by Float64bits in every output bit: the conv
// row interior (all cells, edges included, over a NaN-poisoned row) for one,
// two and three tap rows, and the window fold (winner bits and position) on
// a seed row and on a running cell, at widths 1–300, windows of 1–40 and
// starts off the 16-byte grid.
func FuzzConvAMPKernels(f *testing.F) {
	for _, s := range []struct {
		seed                       int64
		width                      uint16
		misalign, taps, win, winLo uint8
		mode                       uint8
	}{
		{1, 128, 0, 0, 16, 0, kernTanh},   // the shipped map width and window
		{2, 128, 1, 1, 16, 112, kernTanh}, // unaligned, top row, last window
		{3, 2, 0, 0, 2, 0, kernSpecial},   // no interior
		{4, 3, 1, 2, 3, 0, kernSpecial},   // one interior cell (the odd tail)
		{5, 5, 0, 0, 5, 0, kernTies},      // odd width: quad-free pair plus tail
		{6, 300, 1, 0, 40, 200, kernSpecial},
		{7, 129, 0, 3, 1, 7, kernTies},  // H = 1: one tap row, window of one
		{8, 1, 1, 2, 1, 0, kernSpecial}, // width 1
		{9, 46, 1, 1, 7, 39, kernTies},  // odd window at the row's end
		{10, 160, 0, 2, 33, 64, kernSpecial},
	} {
		f.Add(s.seed, s.width, s.misalign, s.taps, s.win, s.winLo, s.mode)
	}
	f.Fuzz(func(t *testing.T, seed int64, width uint16, misalign, taps, win, winLo, mode uint8) {
		w := 1 + int(width-1)%300
		off := int(misalign % 2) // one float64 off a 16-byte-aligned backing array
		m := int(mode) % kernModes
		rng := rand.New(rand.NewSource(seed))

		// Conv row: taps 0 = interior row (3 tap rows), 1 = top (rows 1–2
		// of the filter), 2 = bottom (rows 0–1), 3 = H = 1 (row 1 only).
		convNaN := []uint64{x86DefaultNaN}
		k9 := make([]float64, 9)
		for i := range k9 {
			k9[i] = kernelValue(rng, m, convNaN)
		}
		k := [...][]float64{k9, k9[3:], k9[:6], k9[3:6]}[taps%4]
		rows := len(k) / 3
		src := make([]float64, off+rows*w)[off:]
		for i := range src {
			src[i] = kernelValue(rng, m, convNaN)
		}
		bias := kernelValue(rng, m, convNaN)
		const poison = 0x7ff4000000c0ffee
		got := make([]float64, off+w)[off:]
		want := make([]float64, w)
		for i := range got {
			got[i], want[i] = math.Float64frombits(poison), math.Float64frombits(poison)
		}
		convRowInterior(got, src, k, bias)
		convRowInteriorGeneric(want, src, k, bias)
		for x := range want {
			if g, e := math.Float64bits(got[x]), math.Float64bits(want[x]); g != e {
				t.Fatalf("w=%d rows=%d cell %d: kernel %#x (%g), Go %#x (%g)", w, rows, x, g, got[x], e, want[x])
			}
		}

		// Window fold: a window of 1–40 anywhere in a row of width w.
		n := 1 + int(win-1)%40
		if n > w {
			n = w
		}
		lo := int(winLo) % (w - n + 1)
		vals := make([]float64, off+w)[off:]
		for i := range vals {
			vals[i] = kernelValue(rng, m, windowNaNs[:])
		}
		seg := vals[lo : lo+n]
		pos := 1000 + lo
		running := kernelValue(rng, m, windowNaNs[:])
		for _, c := range []struct {
			name string
			best float64
			arg  int
		}{{"seed row", seg[0], pos}, {"running cell", running, -7}} {
			gb, ga := foldWindow(seg, c.best, c.arg, pos)
			wb, wa := foldWindowGeneric(seg, c.best, c.arg, pos)
			if math.Float64bits(gb) != math.Float64bits(wb) || ga != wa {
				t.Fatalf("%s, window [%d, %d) of %d from %#x: kernel (%#x, %d), Go (%#x, %d)",
					c.name, lo, lo+n, w, math.Float64bits(c.best), math.Float64bits(gb), ga, math.Float64bits(wb), wa)
			}
		}
	})
}
