package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// conv2dReference is the naive oracle for Conv2D.Forward: per output cell,
// bias first, then every in-bounds tap in ascending (ic, ky, kx) order with
// a per-element bounds test. This nesting is the operational definition of
// the forward accumulation chain — the golden training checksum depends on
// Forward's channel-blocked nest and its unrolled 3×3 interior reproducing
// it bit for bit.
func conv2dReference(c *Conv2D, in *Volume) []float64 {
	oh, ow := c.OutDims(in.H, in.W)
	out := make([]float64, c.OutC*oh*ow)
	i := 0
	for oc := 0; oc < c.OutC; oc++ {
		w := c.W.Value.Row(oc)
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				acc := c.B.Value.At(0, oc)
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.KH; ky++ {
						y := oy*c.Stride - c.Pad + ky
						if y < 0 || y >= in.H {
							continue
						}
						for kx := 0; kx < c.KW; kx++ {
							x := ox*c.Stride - c.Pad + kx
							if x < 0 || x >= in.W {
								continue
							}
							acc += w[(ic*c.KH+ky)*c.KW+kx] * in.Data[(ic*in.H+y)*in.W+x]
						}
					}
				}
				out[i] = acc
				i++
			}
		}
	}
	return out
}

// Value regimes of the kernel differentials.
const (
	kernTanh    = iota // (−1, 1): what the graph-conv stack feeds the head
	kernSpecial        // ±0, subnormals, ±Inf, NaN, ±MaxFloat64 and normals, mixed
	kernTies           // {−1, −0, +0, 1}: repeated maxima and zero-sign ties
	kernModes
)

// x86's default NaN, the one invalid operations (Inf·0, Inf − Inf) produce.
// The conv differentials inject only this NaN: when two NaNs with different
// bits meet in an add, the result carries the first operand's, and which
// operand gc puts first in a Go loop is a register-allocation accident.
// With one NaN pattern in play every order gives the same bits.
const x86DefaultNaN = 0xfff8000000000000

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

// checkConv2DForward draws the layer's filters, biases and an inC×h×w input
// from fill, runs Forward over a NaN-poisoned workspace (so a cell the nest
// forgets to write shows) and holds every output cell to conv2dReference by
// Float64bits.
func checkConv2DForward(t *testing.T, layer *Conv2D, h, w int, fill func() float64) {
	t.Helper()
	for _, p := range layer.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] = fill()
		}
	}
	in := NewVolume(layer.InC, h, w)
	for i := range in.Data {
		in.Data[i] = fill()
	}
	oh, ow := layer.OutDims(h, w)
	layer.SetWorkspace(NewWorkspace())
	poisonWorkspace(layer.ws, []int{layer.OutC * oh * ow}, nil)
	got := layer.Forward(in, false)
	want := conv2dReference(layer, in)
	if len(got.Data) != len(want) {
		t.Fatalf("output length %d, want %d", len(got.Data), len(want))
	}
	for i, w := range want {
		if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
			t.Fatalf("cell %d: Forward %x (%g) vs reference %x (%g)",
				i, math.Float64bits(got.Data[i]), got.Data[i], math.Float64bits(w), w)
		}
	}
}

// TestConv2DForwardMatchesReference pins Conv2D.Forward bit-for-bit against
// the naive oracle across kernel geometries and input shapes, including
// inputs narrower and shorter than the kernel, the AMP head's own layer and
// channel counts below, at, between and above the channel block. Any change
// that reorders a single addition fails here before it can disturb the
// trainer's golden checksum.
func TestConv2DForwardMatchesReference(t *testing.T) {
	type geometry struct {
		name                           string
		inC, outC, kh, kw, stride, pad int
		h, w                           int
	}
	cases := []geometry{
		{"3x3 pad1 wide", 2, 3, 3, 3, 1, 1, 7, 23},
		{"3x3 pad1 tall narrow", 3, 2, 3, 3, 1, 1, 19, 2},
		{"3x3 pad1 single row", 1, 2, 3, 3, 1, 1, 1, 9},
		{"3x3 pad1 single column", 1, 2, 3, 3, 1, 1, 9, 1},
		{"3x3 pad1 single cell", 2, 2, 3, 3, 1, 1, 1, 1},
		{"3x3 pad0", 2, 2, 3, 3, 1, 0, 8, 9},
		{"3x3 pad2", 1, 2, 3, 3, 1, 2, 5, 6},
		{"5x5 pad2 stride1", 2, 2, 5, 5, 1, 2, 9, 11},
		{"1x7 pad3 stride1", 1, 2, 1, 7, 1, 3, 4, 15},
		{"4x4 stride2 pad1", 2, 3, 4, 4, 2, 1, 10, 12},
		{"3x3 stride3 pad0", 1, 2, 3, 3, 3, 0, 9, 10},
	}
	// The AMP head's second convolution, 16→32 3×3 same, on the grids
	// Config.AMPGrid gives for PoolingRatio 0.2, 0.64 and 1.0.
	for _, gh := range []int{3, 10, 16} {
		cases = append(cases, geometry{fmt.Sprintf("AMP head %dx8", gh), 16, 32, 3, 3, 1, 1, gh, 8})
	}
	for _, outC := range []int{1, 4, 5, 8, 9, 33} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				cases = append(cases, geometry{fmt.Sprintf("outC%d stride%d pad%d", outC, stride, pad), 2, outC, 3, 3, stride, pad, 7, 9})
			}
		}
	}
	rng := rand.New(rand.NewSource(53))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			layer := NewConv2D(rng, tc.inC, tc.outC, tc.kh, tc.kw, tc.stride, tc.pad)
			checkConv2DForward(t, layer, tc.h, tc.w, rng.NormFloat64)
		})
	}
}

// FuzzConv2DForward holds Conv2D.Forward to conv2dReference by Float64bits
// over random geometries — 1–40 output channels, so full channel blocks, a
// remainder block and lone channels all run — and over ±0, subnormals, ±Inf
// and NaN in inputs, filters and biases alike.
func FuzzConv2DForward(f *testing.F) {
	for _, s := range []struct {
		seed                                     int64
		inC, outC, kh, kw, stride, pad, h, w, md uint8
	}{
		{1, 16, 32, 3, 3, 1, 1, 10, 8, kernTanh}, // the AMP head's layer
		{2, 16, 32, 3, 3, 1, 1, 3, 8, kernSpecial},
		{3, 2, 9, 3, 3, 2, 2, 7, 9, kernSpecial},
		{4, 1, 1, 1, 1, 1, 0, 1, 1, kernTies},
		{5, 3, 33, 5, 2, 3, 4, 6, 11, kernSpecial}, // windows wholly in the padding
		{6, 4, 8, 3, 3, 1, 0, 2, 2, kernTies},      // no output cell
		{7, 5, 12, 4, 3, 1, 1, 12, 1, kernSpecial},
	} {
		f.Add(s.seed, s.inC, s.outC, s.kh, s.kw, s.stride, s.pad, s.h, s.w, s.md)
	}
	f.Fuzz(func(t *testing.T, seed int64, inC, outC, kh, kw, stride, pad, h, w, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		layer := NewConv2D(rng, 1+int(inC-1)%16, 1+int(outC-1)%40, 1+int(kh-1)%5, 1+int(kw-1)%5, 1+int(stride-1)%3, int(pad)%5)
		m := int(mode) % kernModes
		nans := []uint64{x86DefaultNaN}
		checkConv2DForward(t, layer, 1+int(h-1)%20, 1+int(w-1)%20, func() float64 { return kernelValue(rng, m, nans) })
	})
}
