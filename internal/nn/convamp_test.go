package nn

import (
	"math"
	"math/rand"
	"testing"
)

// Input regimes of the fused-vs-layers differential.
const (
	ampRandom      = iota // Gaussian map, filters and gradients
	ampAllNegative        // bias −1e3: every window's maximum is < 0, every winner gated
	ampTies               // identity-like integer filters over a {0,1,2} map: repeated maxima, duplicate winners, gradients that cancel to exactly 0
	ampTanh               // Gaussian filters over a map in (−1, 1), the range the graph-conv stack emits
	ampModes
)

// ampPair builds the fused layer and the three-layer chain it replaces from
// the same RNG seed, each on its own workspace, and checks they drew the
// same filters.
func ampPair(t testing.TB, seed int64, outC, outH, outW, mode int) (*ConvAMP, *Sequential, *Conv2D) {
	t.Helper()
	fused := newConvAMP(rand.New(rand.NewSource(seed)), outC, outH, outW)
	conv := newConv2D(rand.New(rand.NewSource(seed)), 1, outC, 3, 3, 1, 1)
	for i, v := range conv.W.Value.Data {
		if math.Float64bits(v) != math.Float64bits(fused.W.Value.Data[i]) {
			t.Fatalf("filter %d: fused drew %g, Conv2D drew %g from the same seed", i, fused.W.Value.Data[i], v)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for oc := 0; oc < outC; oc++ {
		b := rng.NormFloat64()
		switch mode {
		case ampAllNegative:
			b = -1e3
		case ampTies:
			b = 0
			for i := 0; i < 9; i++ {
				v := float64(rng.Intn(3) - 1)
				if i == 4 {
					v = 1
				}
				fused.W.Value.Data[oc*9+i], conv.W.Value.Data[oc*9+i] = v, v
			}
		}
		fused.B.Value.Data[oc], conv.B.Value.Data[oc] = b, b
	}
	layers := NewSequential(conv, NewReLU(), NewAdaptiveMaxPool2D(outH, outW))
	fused.SetWorkspace(NewWorkspace())
	layers.SetWorkspace(NewWorkspace())
	return fused, layers, conv
}

// poisonWorkspace leaves the slab NaN-filled over at least the room the next
// pass checks out (three of every listed size), so a kernel that relies on
// a zeroed checkout diverges visibly. The first round may outgrow the slab,
// and the Reset after it consolidates into fresh zeroed memory; the second
// round is the one that poisons what the next pass will be handed.
func poisonWorkspace(ws *Workspace, volLens []int, floatLens []int) {
	total := 0
	for _, n := range volLens {
		total += 3 * n
	}
	for _, n := range floatLens {
		total += 3 * n
	}
	for round := 0; round < 2; round++ {
		ws.Reset()
		f := ws.Floats(total)
		for i := range f {
			f[i] = math.NaN()
		}
	}
	ws.Reset()
}

// TestPoisonWorkspaceReachesNextPass keeps the fuzz target's dirty-checkout
// mode honest: every buffer the pass after a poisoning checks out — volumes
// and slices alike, all cut from one slab — starts as NaN.
func TestPoisonWorkspaceReachesNextPass(t *testing.T) {
	ws := NewWorkspace()
	for pass := 0; pass < 2; pass++ {
		poisonWorkspace(ws, []int{40, 7}, []int{5})
		bufs := [][]float64{ws.Volume(2, 4, 5).Data, ws.Floats(5), ws.Volume(1, 1, 7).Data, ws.Matrix(8, 5).Data}
		for i, b := range bufs {
			for j, v := range b {
				if !math.IsNaN(v) {
					t.Fatalf("pass %d: checkout %d element %d = %g, want NaN", pass, i, j, v)
				}
			}
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Fatalf("%s[%d]: fused %x (%g) vs layers %x (%g)",
				what, i, math.Float64bits(got[i]), got[i], math.Float64bits(w), w)
		}
	}
}

// forEachKernelPath runs f on each forward kernel path this machine has:
// the AVX2 kernels where the CPU check chose them, then the Go reference
// loops, which every machine without AVX2 runs. The choice is restored
// afterwards.
func forEachKernelPath(f func(path string)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	if saved {
		f("avx2")
	}
	useAVX2 = false
	f("go")
}

// checkFusedVsLayers holds ConvAMP to Conv2D → ReLU → AdaptiveMaxPool2D bit
// for bit — forward output, input gradient, and filter/bias gradients
// accumulated over two consecutive samples of different heights — with every
// workspace checkout dirty.
func checkFusedVsLayers(t *testing.T, seed int64, h, w, outC, outH, outW, mode int) {
	t.Helper()
	fused, layers, conv := ampPair(t, seed, outC, outH, outW, mode)
	rng := rand.New(rand.NewSource(seed ^ 0xda7a))
	for sample, sh := range []int{h, 1 + (h+int(seed&31))%64} {
		in := NewVolume(1, sh, w)
		dout := NewVolume(outC, outH, outW)
		for i := range in.Data {
			switch mode {
			case ampTies:
				in.Data[i] = float64(rng.Intn(3))
			case ampTanh:
				in.Data[i] = math.Tanh(rng.NormFloat64())
			default:
				in.Data[i] = rng.NormFloat64()
			}
		}
		for i := range dout.Data {
			switch {
			case mode == ampTies:
				dout.Data[i] = float64(rng.Intn(5) - 2)
			case rng.Intn(8) == 0:
				dout.Data[i] = 0
			default:
				dout.Data[i] = rng.NormFloat64()
			}
		}
		map3 := outC * sh * w
		poisonWorkspace(fused.ws, []int{outC * outH * outW, sh * w}, []int{w})
		poisonWorkspace(conv.ws, []int{outC * outH * outW, sh * w, map3}, nil)

		got := fused.Forward(in, true)
		want := layers.Forward(in, true)
		if got.C != want.C || got.H != want.H || got.W != want.W {
			t.Fatalf("sample %d: output %dx%dx%d, want %dx%dx%d", sample, got.C, got.H, got.W, want.C, want.H, want.W)
		}
		sameBits(t, "out", got.Data, want.Data)
		gotDin := fused.Backward(dout)
		wantDin := layers.Backward(dout)
		sameBits(t, "din", gotDin.Data, wantDin.Data)
		sameBits(t, "W.Grad", fused.W.Grad.Data, conv.W.Grad.Data)
		sameBits(t, "B.Grad", fused.B.Grad.Data, conv.B.Grad.Data)
	}
}

// FuzzFusedHeadVsLayers is the differential behind the AMP head fusion: any
// reordered addition, missed tie-break or dropped duplicate winner in
// ConvAMP shows up as a bit difference against the three layers it replaced.
// Every input runs on both kernel paths, and OutC spans 1–40.
func FuzzFusedHeadVsLayers(f *testing.F) {
	seeds := []struct {
		seed                int64
		h                   uint16
		w, outC, outH, outW uint8
		mode                uint8
	}{
		{1, 40, 32, 4, 10, 8, ampRandom},      // the shipped grid, H and W above it
		{2, 63, 39, 3, 10, 8, ampRandom},      // largest map, windows overlap on both axes
		{3, 4, 5, 2, 10, 8, ampRandom},        // H < OutH and W < OutW: clamped windows
		{4, 1, 16, 2, 10, 8, ampRandom},       // H = 1: the empty-graph substitute vertex
		{5, 1, 1, 1, 1, 1, ampRandom},         // single cell
		{6, 12, 1, 2, 5, 3, ampRandom},        // W = 1
		{7, 12, 2, 2, 5, 3, ampRandom},        // W = 2
		{8, 25, 20, 3, 10, 8, ampAllNegative}, // every winner gated
		{9, 15, 12, 2, 10, 8, ampTies},        // repeated maxima on window overlaps
		{10, 7, 9, 4, 3, 3, ampTies},
		{11, 3, 3, 1, 2, 2, ampAllNegative},
		// The map the shipped model feeds the layer: W = Σc = 4 × 32, at the
		// YANCFG median, the listing mean and the top listing band.
		{12, 46, 128, 4, 10, 8, ampTanh},
		{13, 203, 128, 4, 10, 8, ampTanh},
		{14, 420, 128, 4, 10, 8, ampTanh},
		{15, 203, 128, 2, 10, 8, ampRandom},
		{16, 61, 157, 3, 10, 8, ampTies}, // odd W above the shipped one
		// Table II's other channel count, and channel counts that leave
		// padding lanes or a block of four after the blocks of sixteen.
		{17, 203, 128, 32, 10, 8, ampTanh},
		{18, 46, 128, 32, 10, 8, ampTies},
		{19, 30, 37, 5, 10, 8, ampRandom},
		{20, 17, 128, 17, 10, 8, ampTanh},
		{21, 9, 3, 23, 4, 2, ampAllNegative},
		{22, 1, 128, 31, 10, 8, ampTies},
	}
	for _, s := range seeds {
		f.Add(s.seed, s.h, s.w, s.outC, s.outH, s.outW, s.mode)
	}
	f.Fuzz(func(t *testing.T, seed int64, h uint16, w, outC, outH, outW, mode uint8) {
		forEachKernelPath(func(path string) {
			t.Logf("kernel path: %s", path)
			checkFusedVsLayers(t, seed,
				1+int(h-1)%420, 1+int(w-1)%160, 1+int(outC-1)%40, 1+int(outH-1)%10, 1+int(outW-1)%8, int(mode)%ampModes)
		})
	})
}

// TestConvAMPDuplicateWinner builds the case the backward's per-position
// summing exists for: with 15 rows pooled to 10, grid rows 0 and 1 both hold
// conv row 1, so one spike there wins two cells and their gradients must be
// summed before the g == 0 test — here they cancel exactly, and the layers
// path contributes nothing.
func TestConvAMPDuplicateWinner(t *testing.T) {
	fused, layers, conv := ampPair(t, 1, 1, 10, 1, ampTies)
	for i := range fused.W.Value.Data {
		v := 0.0
		if i == 4 {
			v = 1 // identity filter: the conv map is the input
		}
		fused.W.Value.Data[i], conv.W.Value.Data[i] = v, v
	}
	in := NewVolume(1, 15, 4)
	in.Data[1*4+2] = 5
	dout := NewVolume(1, 10, 1)
	dout.Data[0], dout.Data[1] = 3, -3

	got, want := fused.Forward(in, true), layers.Forward(in, true)
	sameBits(t, "out", got.Data, want.Data)
	if a0, a1 := fused.pos[0], fused.pos[fused.lanes]; a0 != 1*4+2 || a1 != 1*4+2 {
		t.Fatalf("cells 0 and 1 won by %d and %d, want both %d", a0, a1, 1*4+2)
	}
	sameBits(t, "din", fused.Backward(dout).Data, layers.Backward(dout).Data)
	sameBits(t, "W.Grad", fused.W.Grad.Data, conv.W.Grad.Data)
	sameBits(t, "B.Grad", fused.B.Grad.Data, conv.B.Grad.Data)
	if g := fused.B.Grad.Data[0]; g != 0 {
		t.Fatalf("cancelling duplicate gradients left B.Grad = %g", g)
	}

	dout.Data[1] = 4 // now they add: one conv cell receives 3 + 4
	fused.Forward(in, true)
	layers.Forward(in, true)
	sameBits(t, "din", fused.Backward(dout).Data, layers.Backward(dout).Data)
	sameBits(t, "B.Grad", fused.B.Grad.Data, conv.B.Grad.Data)
	if g := fused.B.Grad.Data[0]; g != 7 {
		t.Fatalf("duplicate winner: B.Grad = %g, want 7", g)
	}
}

// TestConvAMPZeroAlloc pins the warm fused layer at zero heap allocations
// per Forward+Backward and its workspace at O(grid + OutC·W + H·W) bytes —
// no OutC×H×W map.
func TestConvAMPZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l := newConvAMP(rng, 16, 10, 8)
	ws := NewWorkspace()
	l.SetWorkspace(ws)
	in := randVolume(rng, 1, 179, 128)
	dout := randVolume(rng, 16, 10, 8)
	step := func() {
		ws.Reset()
		l.Forward(in, true)
		l.Backward(dout)
	}
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("warm Forward+Backward: %v allocs/op, want 0", allocs)
	}
	// out + the [x][c] conv row + din: the slab is consolidated to exactly
	// the sum of one pass's checkouts.
	want := uint64(8 * (16*10*8 + 128*16 + 179*128))
	if got := ws.Stats().Bytes; got != want {
		t.Errorf("workspace holds %d bytes, want %d", got, want)
	}
}

// TestFoldWindowScanRules pins the fold's three rules — on each kernel path,
// at window lengths that reach the kernel's column loop from zero to seven
// columns, in every channel of layers whose lanes fill one vector, leave
// padding and run past a block of sixteen: the first occurrence of the
// maximum wins with its own bits and its own position (so −0 before +0
// stays −0), a NaN that seeds the window is kept, and a NaN anywhere else
// never wins. Padding lanes hold +Inf, which would win every window if they
// were read, and a window starting past column 0 shows that positions
// count from the row's base, not the window's start.
func TestFoldWindowScanRules(t *testing.T) {
	nan, negZero, inf := math.Float64frombits(0x7ff8000000000001), math.Copysign(0, -1), math.Inf(1)
	const base, arg = 100, -1 // conv position of the row's column 0; an unchanged winner's
	cases := []struct {
		name     string
		seg      []float64
		best     float64
		wantBits uint64
		wantAt   int // column in seg, or arg
	}{
		{"seed NaN kept", []float64{nan, 5, inf, 7}, nan, math.Float64bits(nan), arg},
		{"later NaN skipped", []float64{1, nan, 0.5, 0.25, nan}, 1, math.Float64bits(1), arg},
		{"NaNs do not hide a later maximum", []float64{1, nan, 2, nan, 5, 0.5}, 0, math.Float64bits(5), 4},
		{"all-NaN window leaves the winner", []float64{nan, nan, nan}, 0.2, math.Float64bits(0.2), arg},
		{"−0 before +0", []float64{negZero, 0}, -1, math.Float64bits(negZero), 0},
		{"+0 before −0", []float64{0, negZero, 0, negZero, negZero}, -1, math.Float64bits(0), 0},
		{"+0 does not beat −0", []float64{0, 0, 0}, negZero, math.Float64bits(negZero), arg},
		{"equal does not beat", []float64{3, 2, 3}, 3, math.Float64bits(3), arg},
		{"first of two maxima", []float64{1, 3, 2, 3, 0, 3}, 0, math.Float64bits(3), 1},
		{"maximum in the last odd cell", []float64{1, 2, 3, 4, 5, 6, 7}, 6.5, math.Float64bits(7), 6},
		{"maximum mid-window", []float64{0, 0, 9, 0, 0}, -inf, math.Float64bits(9), 2},
		{"+Inf wins once", []float64{inf, inf}, math.MaxFloat64, math.Float64bits(inf), 0},
		{"empty window", nil, 4, math.Float64bits(4), arg},
	}
	forEachKernelPath(func(path string) {
		for _, outC := range []int{4, 6, 17} {
			for _, lo := range []int{0, 3} {
				s := (outC + 3) &^ 3
				for _, tc := range cases {
					n := len(tc.seg)
					row := make([]float64, (lo+n)*s)
					for x := range lo + n {
						for c := range s {
							row[x*s+c] = inf
							if c < outC && x >= lo {
								row[x*s+c] = tc.seg[x-lo]
							}
						}
					}
					best, pos := make([]float64, s), make([]int, s)
					for c := range s {
						best[c], pos[c] = tc.best, arg
					}
					foldRow(best, pos, row, []int{lo}, []int{lo + n}, base)
					want := arg
					if tc.wantAt != arg {
						want = base + lo + tc.wantAt
					}
					for c := range outC {
						if b, at := math.Float64bits(best[c]), pos[c]; b != tc.wantBits || at != want {
							t.Errorf("%s path, OutC %d, window from %d, channel %d: %s = (%#x, %d), want (%#x, %d)",
								path, outC, lo, c, tc.name, b, at, tc.wantBits, want)
						}
					}
				}
			}
		}
	})
}

// BenchmarkConvAMPKernelPaths times the forward at the shipped shape —
// 16 channels, a 10×8 grid, the 203×128 map of the classify-asm-large
// listing mean — on each kernel path this machine has, so the Go path a
// machine without AVX2 runs is measured beside the AVX2 one.
func BenchmarkConvAMPKernelPaths(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	in := NewVolume(1, 203, 128)
	for i := range in.Data {
		in.Data[i] = math.Tanh(rng.NormFloat64())
	}
	l := newConvAMP(rng, 16, 10, 8)
	ws := NewWorkspace()
	l.SetWorkspace(ws)
	forEachKernelPath(func(path string) {
		b.Run(path, func(b *testing.B) {
			step := func() {
				ws.Reset()
				l.Forward(in, false)
			}
			step()
			step()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	})
}
