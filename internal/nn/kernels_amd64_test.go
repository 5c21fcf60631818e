package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// windowNaNs are the NaNs the fold differential injects. The fold never
// computes with a NaN, only compares and copies it, so any payload —
// signalling ones included — must come out bit for bit.
var windowNaNs = [...]uint64{x86DefaultNaN, 0x7ff8000000000001, 0x7ff0000000000001, 0xfff0dead0000beef}

// FuzzConvAMPKernels holds the kernels behind ConvAMP.Forward, as this
// machine dispatches them, to the Go loops of convamp_generic.go by
// Float64bits in every lane: the conv row interior (every column, edges
// included, over a NaN-poisoned row) for one, two and three tap rows, and
// the fold of a row into a grid row's windows (maxima and the positions
// of their winners) from seeded and from running maxima. OutC runs 1–40, so lane
// padding and blocks of sixteen both occur; widths 1–300; windows
// adaptive — overlapping, or one column wide when there are more of them
// than columns — or arbitrary; starts off the 32-byte grid.
func FuzzConvAMPKernels(f *testing.F) {
	for _, s := range []struct {
		seed                          int64
		width                         uint16
		outC, taps, windows, misalign uint8
		mode                          uint8
	}{
		{1, 128, 16, 0, 8, 0, kernTanh},          // the shipped map width, channels and grid
		{2, 128, 16, 1, 8, 1, kernTanh},          // unaligned, top row
		{3, 2, 3, 0, 2, 0, kernSpecial},          // no interior; one padding lane
		{4, 3, 5, 2, 3, 1, kernSpecial},          // one interior cell; 16 + 4 lanes
		{5, 5, 32, 0, 5, 0, kernTies},            // Table II's other channel count
		{6, 300, 40, 1, 16 + 12, 1, kernSpecial}, // two blocks of 16 and two of 4; arbitrary windows
		{7, 129, 1, 3, 8, 0, kernTies},           // H = 1: one tap row; three padding lanes
		{8, 1, 17, 2, 1, 1, kernSpecial},         // width 1
		{9, 46, 7, 1, 16 + 7, 1, kernTies},       // odd channels, arbitrary windows
		{10, 160, 24, 2, 8, 0, kernSpecial},
		{11, 6, 16, 0, 15, 0, kernTies}, // more windows than columns: width 1, overlapping
		{12, 127, 33, 0, 10, 1, kernSpecial},
	} {
		f.Add(s.seed, s.width, s.outC, s.taps, s.windows, s.misalign, s.mode)
	}
	f.Fuzz(func(t *testing.T, seed int64, width uint16, outC, taps, windows, misalign, mode uint8) {
		w := 1 + int(width-1)%300
		s := (1 + int(outC-1)%40 + 3) &^ 3
		off := int(misalign % 4) // float64s off a 32-byte-aligned backing array
		m := int(mode) % kernModes
		rng := rand.New(rand.NewSource(seed))
		floats := func(n int, nans []uint64) []float64 {
			v := make([]float64, off+n)[off:]
			for i := range v {
				v[i] = kernelValue(rng, m, nans)
			}
			return v
		}

		// Conv row: taps 0 = interior row (3 tap rows), 1 = top (rows 1–2
		// of the filter), 2 = bottom (rows 0–1), 3 = H = 1 (row 1 only).
		convNaN := []uint64{x86DefaultNaN}
		k9 := floats(9*s, convNaN)
		k := [...][]float64{k9, k9[3*s:], k9[:6*s], k9[3*s : 6*s]}[taps%4]
		rows := len(k) / (3 * s)
		src := floats(rows*w, convNaN)
		bias := floats(s, convNaN)
		const poison = 0x7ff4000000c0ffee
		got := make([]float64, off+w*s)[off:]
		want := make([]float64, w*s)
		for i := range got {
			got[i], want[i] = math.Float64frombits(poison), math.Float64frombits(poison)
		}
		if w > 2 {
			convRowInterior(got, src, k, bias, w)
			convRowInteriorGeneric(want, src, k, bias, w)
		}
		for i := range want {
			if g, e := math.Float64bits(got[i]), math.Float64bits(want[i]); g != e {
				t.Fatalf("w=%d s=%d rows=%d cell %d lane %d: kernel %#x (%g), Go %#x (%g)", w, s, rows, i/s, i%s, g, got[i], e, want[i])
			}
		}

		// Fold: 1–16 windows, adaptive or (bit 4) arbitrary ones of 1–40
		// columns.
		nw := 1 + int(windows%16)
		x0, x1 := make([]int, nw), make([]int, nw)
		for ox := range x0 {
			x0[ox], x1[ox] = adaptiveWindow(ox, nw, w)
			if windows&16 != 0 {
				x0[ox] = rng.Intn(w)
				x1[ox] = x0[ox] + 1 + rng.Intn(min(40, w-x0[ox]))
			}
		}
		row := floats(w*s, windowNaNs[:])
		running := floats(nw*s, windowNaNs[:])
		seeded := make([]float64, nw*s)
		for ox, lo := range x0 {
			copy(seeded[ox*s:(ox+1)*s], row[lo*s:(lo+1)*s])
		}
		base := rng.Intn(1 << 20)
		for _, c := range []struct {
			name string
			best []float64
		}{{"seed row", seeded}, {"running cells", running}} {
			gotBest, wantBest := slices.Clone(c.best), slices.Clone(c.best)
			gotPos, wantPos := make([]int, nw*s), make([]int, nw*s)
			for i := range gotPos {
				gotPos[i] = -1 - i
				wantPos[i] = gotPos[i]
			}
			foldRow(gotBest, gotPos, row, x0, x1, base)
			foldRowGeneric(wantBest, wantPos, row, x0, x1, base)
			for i := range wantBest {
				if g, e := math.Float64bits(gotBest[i]), math.Float64bits(wantBest[i]); g != e || gotPos[i] != wantPos[i] {
					ox := i / s
					t.Fatalf("%s, window %d [%d, %d) of %d, lane %d from %#x: kernel (%#x, %d), Go (%#x, %d)",
						c.name, ox, x0[ox], x1[ox], w, i%s, math.Float64bits(c.best[i]), g, gotPos[i], e, wantPos[i])
				}
			}
		}
	})
}
