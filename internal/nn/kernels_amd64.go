package nn

import "repro/internal/tensor"

// useAVX2 selects the forward kernels of ConvAMP and Conv2D, once, from
// tensor's CPU check: the AVX2 assembly of kernels_amd64.s where the CPU
// and the OS offer it, the Go reference loops everywhere else. Tests swap
// it to run the Go path.
var useAVX2 = tensor.HasAVX2()

// convRowAVX2 is convRowInteriorGeneric with the lanes of a column side by
// side: four channels per YMM register, up to sixteen channels and two
// cells per pass, each lane running the same bias-then-taps chain of
// VMULPD and VADDPD. Channels past the last block of sixteen run four at a
// time.
//
//go:noescape
func convRowAVX2(dst, src, taps, bias []float64, w, rows int)

// foldRowAVX2 is foldRowGeneric with four lanes per register: VCMPPD
// greater-than against the running maximum, VMAXPD with the column as the
// operand that wins when greater, and VBLENDVPD of the column's position
// where the compare held.
//
//go:noescape
func foldRowAVX2(best []float64, pos []int, row []float64, x0, x1 []int, s, base int)

// conv2dCellAVX2 computes one output cell of Conv2D, every channel side by
// side: dst and bias hold len(bias) lanes, taps the filters packed
// [tap][c]. From the cell's first in-bounds input src[0] and tap taps[0]
// it runs, for inC input channels, nky rows of nkx taps; after a row it
// skips rowSkip bytes of input and tapRowSkip of taps, after an input
// channel icSkip and tapICSkip. Per lane the chain is bias, then VMULPD and
// VADDPD per tap in that order: 32 lanes per pass, the rest four at a
// time.
//
//go:noescape
func conv2dCellAVX2(dst, src, taps, bias []float64, inC, nky, nkx, rowSkip, icSkip, tapRowSkip, tapICSkip int)

// convRowInterior is convRowInteriorGeneric; see there for the contract.
func convRowInterior(dst, src, taps, bias []float64, w int) {
	if !useAVX2 {
		convRowInteriorGeneric(dst, src, taps, bias, w)
		return
	}
	s := len(bias)
	if s == 0 || s%4 != 0 || w < 3 || len(dst) < w*s {
		panic("nn: convRowInterior needs lanes in fours and a row of at least 3 columns")
	}
	rows := len(taps) / (3 * s)
	if rows < 1 || rows > 3 || len(taps) != 3*rows*s || len(src) < rows*w {
		panic("nn: convRowInterior needs 1 to 3 tap rows of 3 taps and a full input row per tap row")
	}
	convRowAVX2(dst, src, taps, bias, w, rows)
}

// foldRow is foldRowGeneric; see there for the contract.
func foldRow(best []float64, pos []int, row []float64, x0, x1 []int, base int) {
	if !useAVX2 {
		foldRowGeneric(best, pos, row, x0, x1, base)
		return
	}
	if len(x0) == 0 || len(x1) != len(x0) {
		panic("nn: foldRow needs one end per window start")
	}
	s := len(best) / len(x0)
	if s == 0 || s%4 != 0 || len(best) != s*len(x0) || len(pos) != len(best) {
		panic("nn: foldRow needs lanes in fours and one position per lane")
	}
	cols := len(row) / s
	for ox, lo := range x0 {
		if lo < 0 || lo > x1[ox] || x1[ox] > cols {
			panic("nn: foldRow window outside the row")
		}
	}
	foldRowAVX2(best, pos, row, x0, x1, s, base)
}

// conv2dForward writes Conv2D's output into out: conv2dReference itself
// without AVX2; with it, each cell's channels side by side in
// conv2dCellAVX2 over taps packed [tap][c], then scattered to the
// channel planes. Every lane runs the reference's chain, so the two are
// bit-identical.
func conv2dForward(c *Conv2D, in, out *Volume) {
	if !useAVX2 {
		conv2dReference(c, in, out)
		return
	}
	s, taps := len(c.bias), c.InC*c.KH*c.KW
	for oc := 0; oc < c.OutC; oc++ {
		for t, v := range c.W.Value.Row(oc) {
			c.packed[t*s+oc] = v
		}
	}
	copy(c.bias, c.B.Value.Data)
	if len(c.packed) != taps*s || len(c.cell) != s {
		panic("nn: conv2d packed taps out of shape")
	}
	ohw, inHW := out.H*out.W, in.H*in.W
	for oy := 0; oy < out.H; oy++ {
		sy := oy*c.Stride - c.Pad
		kyLo, kyHi := tapSpan(sy, c.KH, in.H)
		nky := kyHi - kyLo
		for ox := 0; ox < out.W; ox++ {
			sx := ox*c.Stride - c.Pad
			kxLo, kxHi := tapSpan(sx, c.KW, in.W)
			nkx := kxHi - kxLo
			src, tap := in.Data, c.packed
			if nky > 0 && nkx > 0 {
				// The spans are in bounds, so both slices start inside their
				// buffers; the kernel reads only the taps they name.
				src = in.Data[(sy+kyLo)*in.W+sx+kxLo:]
				tap = c.packed[(kyLo*c.KW+kxLo)*s:]
			}
			conv2dCellAVX2(c.cell, src, tap, c.bias, c.InC, nky, nkx,
				8*(in.W-nkx), 8*(inHW-nky*in.W), 8*s*(c.KW-nkx), 8*s*(c.KH-nky)*c.KW)
			cell := oy*out.W + ox
			for oc, v := range c.cell[:c.OutC] {
				out.Data[oc*ohw+cell] = v
			}
		}
	}
}
