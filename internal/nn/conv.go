package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Conv1D is a one-dimensional convolution over the width axis of a C×1×W
// volume. With kernel size and stride both equal to the per-vertex feature
// width it realizes the "remaining layer" of the original DGCNN (Section
// III-A-4): each filter aggregates one vertex's feature descriptor at a
// time.
type Conv1D struct {
	InC, OutC, Kernel, Stride int
	W                         *Param // OutC × (InC*Kernel)
	B                         *Param // 1 × OutC

	wsHolder
	lastIn *Volume
}

// NewConv1D builds a 1-D convolution layer over the OutC × (InC·kernel)
// filters w and the 1 × OutC bias b.
func NewConv1D(w, b *tensor.Matrix, kernel, stride int) *Conv1D {
	if kernel <= 0 || stride <= 0 {
		panic("nn: conv1d kernel and stride must be positive")
	}
	return &Conv1D{
		InC: w.Cols / kernel, OutC: w.Rows, Kernel: kernel, Stride: stride,
		W: NewParam("conv1d.W", w),
		B: NewParam("conv1d.B", b),
	}
}

// OutWidth returns the output width for an input of width w.
func (c *Conv1D) OutWidth(w int) int {
	if w < c.Kernel {
		return 0
	}
	return (w-c.Kernel)/c.Stride + 1
}

// Forward slides each filter across the width axis.
func (c *Conv1D) Forward(in *Volume, _ bool) *Volume {
	if in.C != c.InC || in.H != 1 {
		panic(fmt.Sprintf("nn: conv1d expects %dx1xW, got %dx%dx%d", c.InC, in.C, in.H, in.W))
	}
	c.lastIn = in
	ow := c.OutWidth(in.W)
	out := c.ws.Volume(c.OutC, 1, ow)
	for oc := 0; oc < c.OutC; oc++ {
		w := c.W.Value.Row(oc)
		bias := c.B.Value.At(0, oc)
		for ox := 0; ox < ow; ox++ {
			start := ox * c.Stride
			sum := bias
			for ic := 0; ic < c.InC; ic++ {
				inRow := in.Data[ic*in.W : (ic+1)*in.W]
				wOff := ic * c.Kernel
				for k := 0; k < c.Kernel; k++ {
					sum += w[wOff+k] * inRow[start+k]
				}
			}
			out.Set(oc, 0, ox, sum)
		}
	}
	return out
}

// Backward accumulates filter/bias gradients and returns the input gradient.
func (c *Conv1D) Backward(dout *Volume) *Volume {
	in := c.lastIn
	din := c.ws.Volume(in.C, 1, in.W)
	din.Zero() // the scatter below accumulates
	gW, gB := c.W.Gradient(), c.B.Gradient()
	ow := dout.W
	for oc := 0; oc < c.OutC; oc++ {
		w := c.W.Value.Row(oc)
		gw := gW.Row(oc)
		for ox := 0; ox < ow; ox++ {
			g := dout.At(oc, 0, ox)
			if g == 0 {
				continue
			}
			gB.Data[oc] += g
			start := ox * c.Stride
			for ic := 0; ic < c.InC; ic++ {
				inRow := in.Data[ic*in.W : (ic+1)*in.W]
				dinRow := din.Data[ic*in.W : (ic+1)*in.W]
				wOff := ic * c.Kernel
				for k := 0; k < c.Kernel; k++ {
					gw[wOff+k] += g * inRow[start+k]
					dinRow[start+k] += g * w[wOff+k]
				}
			}
		}
	}
	return din
}

// Params returns the filter and bias parameters.
func (c *Conv1D) Params() []*Param { return []*Param{c.W, c.B} }

// Conv2D is a two-dimensional convolution with square-free (possibly
// rectangular) kernels, stride and zero padding, used by the
// AdaptiveMaxPooling head's VGG-style classifier (Section III-C).
type Conv2D struct {
	InC, OutC int
	KH, KW    int
	Stride    int
	Pad       int
	W         *Param // OutC × (InC*KH*KW)
	B         *Param // 1 × OutC

	wsHolder
	lastIn *Volume
	packed []float64 // one channel block's filters, tap-major: [t*convBlock+j]
}

// convBlock is the number of output channels Conv2D.Forward carries per
// cell, one register accumulator each.
const convBlock = 8

// NewConv2D builds a 2-D convolution layer over the OutC × (InC·kh·kw)
// filters w and the 1 × OutC bias b.
func NewConv2D(w, b *tensor.Matrix, kh, kw, stride, pad int) *Conv2D {
	if kh <= 0 || kw <= 0 || stride <= 0 || pad < 0 {
		panic("nn: conv2d invalid geometry")
	}
	return &Conv2D{
		InC: w.Cols / (kh * kw), OutC: w.Rows, KH: kh, KW: kw, Stride: stride, Pad: pad,
		W:      NewParam("conv2d.W", w),
		B:      NewParam("conv2d.B", b),
		packed: make([]float64, w.Cols*convBlock),
	}
}

// OutDims returns the output height and width for an h×w input.
func (c *Conv2D) OutDims(h, w int) (int, int) {
	oh := (h+2*c.Pad-c.KH)/c.Stride + 1
	ow := (w+2*c.Pad-c.KW)/c.Stride + 1
	if oh < 0 {
		oh = 0
	}
	if ow < 0 {
		ow = 0
	}
	return oh, ow
}

// tapSpan returns the half-open range [lo, hi) of the taps of a k-wide
// window starting at s that land inside [0, n): the taps the reference
// loop's per-element bounds test keeps.
func tapSpan(s, k, n int) (int, int) {
	lo, hi := 0, k
	if s < 0 {
		lo = -s
	}
	if over := s + k - n; over > 0 {
		hi = k - over
	}
	return lo, max(lo, hi)
}

// Forward performs the cross-correlation.
//
// The nest is cell-major over blocks of convBlock output channels. A block's
// filters are first interleaved tap by tap into c.packed, so each input value
// meets the block's convBlock weights in one contiguous run. Every output
// cell then keeps one register accumulator per channel of the block, seeds
// it with that channel's bias and adds the cell's in-bounds taps in
// ascending (ic, ky, kx) order as sequential adds — per channel exactly the
// reference chain (conv2dReference in convdiff_test.go). The block only
// interleaves independent chains, so it changes no bit; a block running past
// OutC repeats the last channel, whose duplicate stores write the same bits.
// Cells whose whole 3×3 receptive field is in bounds take an unrolled branch,
// which runs the head's 16→32 layer 1.2–1.7× faster than the looped taps.
func (c *Conv2D) Forward(in *Volume, _ bool) *Volume {
	if in.C != c.InC {
		panic(fmt.Sprintf("nn: conv2d expects %d channels, got %d", c.InC, in.C))
	}
	c.lastIn = in
	oh, ow := c.OutDims(in.H, in.W)
	out := c.ws.Volume(c.OutC, oh, ow)
	inHW, ohw, taps := in.H*in.W, oh*ow, c.InC*c.KH*c.KW
	wd, bd, kp := c.W.Value.Data, c.B.Value.Data, c.packed
	var o [convBlock]int
	for oc := 0; oc < c.OutC; oc += convBlock {
		for j := range o {
			o[j] = min(oc+j, c.OutC-1)
			for t, v := range wd[o[j]*taps : (o[j]+1)*taps] {
				kp[t*convBlock+j] = v
			}
		}
		for oy := 0; oy < oh; oy++ {
			sy := oy*c.Stride - c.Pad
			kyLo, kyHi := tapSpan(sy, c.KH, in.H)
			for ox := 0; ox < ow; ox++ {
				sx := ox*c.Stride - c.Pad
				kxLo, kxHi := tapSpan(sx, c.KW, in.W)
				a0, a1, a2, a3 := bd[o[0]], bd[o[1]], bd[o[2]], bd[o[3]]
				a4, a5, a6, a7 := bd[o[4]], bd[o[5]], bd[o[6]], bd[o[7]]
				if c.KH == 3 && c.KW == 3 && kyHi-kyLo == 3 && kxHi-kxLo == 3 {
					for ic := 0; ic < c.InC; ic++ {
						for ky := 0; ky < 3; ky++ {
							r0, t := ic*inHW+(sy+ky)*in.W+sx, (ic*9+ky*3)*convBlock
							r, k := in.Data[r0:r0+3:r0+3], kp[t:t+3*convBlock:t+3*convBlock]
							v := r[0]
							a0 += k[0] * v
							a1 += k[1] * v
							a2 += k[2] * v
							a3 += k[3] * v
							a4 += k[4] * v
							a5 += k[5] * v
							a6 += k[6] * v
							a7 += k[7] * v
							v = r[1]
							a0 += k[8] * v
							a1 += k[9] * v
							a2 += k[10] * v
							a3 += k[11] * v
							a4 += k[12] * v
							a5 += k[13] * v
							a6 += k[14] * v
							a7 += k[15] * v
							v = r[2]
							a0 += k[16] * v
							a1 += k[17] * v
							a2 += k[18] * v
							a3 += k[19] * v
							a4 += k[20] * v
							a5 += k[21] * v
							a6 += k[22] * v
							a7 += k[23] * v
						}
					}
				} else {
					for ic := 0; ic < c.InC; ic++ {
						for ky := kyLo; ky < kyHi; ky++ {
							r0, t := ic*inHW+(sy+ky)*in.W+sx, (ic*c.KH+ky)*c.KW
							for kx := kxLo; kx < kxHi; kx++ {
								v, k := in.Data[r0+kx], kp[(t+kx)*convBlock:(t+kx+1)*convBlock:(t+kx+1)*convBlock]
								a0 += k[0] * v
								a1 += k[1] * v
								a2 += k[2] * v
								a3 += k[3] * v
								a4 += k[4] * v
								a5 += k[5] * v
								a6 += k[6] * v
								a7 += k[7] * v
							}
						}
					}
				}
				cell := oy*ow + ox
				for j, v := range [convBlock]float64{a0, a1, a2, a3, a4, a5, a6, a7} {
					out.Data[o[j]*ohw+cell] = v
				}
			}
		}
	}
	return out
}

// Backward accumulates filter/bias gradients and returns the input gradient.
//
// Unlike Forward, the reference (oc, oy, ox) → (ic, ky, kx) nesting must be
// kept: reordering it would change the order in which din cells and filter
// gradients accumulate their contributions and so change their low-order
// bits. The optimization here is purely indexing — per-cell bounds tests
// become clamped kernel ranges and At/Set become row-slice arithmetic —
// which leaves every accumulation chain untouched.
func (c *Conv2D) Backward(dout *Volume) *Volume {
	in := c.lastIn
	din := c.ws.Volume(in.C, in.H, in.W)
	din.Zero() // the scatter below accumulates
	inHW := in.H * in.W
	ohw := dout.H * dout.W
	gW, gB := c.W.Gradient(), c.B.Gradient()
	for oc := 0; oc < c.OutC; oc++ {
		w := c.W.Value.Row(oc)
		gw := gW.Row(oc)
		doutCh := dout.Data[oc*ohw : (oc+1)*ohw]
		for oy := 0; oy < dout.H; oy++ {
			sy := oy*c.Stride - c.Pad
			kyLo, kyHi := 0, c.KH
			if sy < 0 {
				kyLo = -sy
			}
			if over := sy + c.KH - in.H; over > 0 {
				kyHi = c.KH - over
			}
			doutRow := doutCh[oy*dout.W : (oy+1)*dout.W]
			for ox := 0; ox < dout.W; ox++ {
				g := doutRow[ox]
				if g == 0 {
					continue
				}
				// In place, not via a local partial: the bias gradient
				// accumulates across samples, so its chain must add each g
				// directly like the reference loop.
				gB.Data[oc] += g
				sx := ox*c.Stride - c.Pad
				kxLo, kxHi := 0, c.KW
				if sx < 0 {
					kxLo = -sx
				}
				if over := sx + c.KW - in.W; over > 0 {
					kxHi = c.KW - over
				}
				for ic := 0; ic < c.InC; ic++ {
					inCh := in.Data[ic*inHW : (ic+1)*inHW]
					dinCh := din.Data[ic*inHW : (ic+1)*inHW]
					for ky := kyLo; ky < kyHi; ky++ {
						y := sy + ky
						base := y*in.W + sx
						inRow := inCh[base+kxLo : base+kxHi]
						dinRow := dinCh[base+kxLo : base+kxHi]
						wOff := (ic*c.KH+ky)*c.KW + kxLo
						wSeg := w[wOff : wOff+kxHi-kxLo]
						gwSeg := gw[wOff : wOff+kxHi-kxLo]
						for t, iv := range inRow {
							gwSeg[t] += g * iv
							dinRow[t] += g * wSeg[t]
						}
					}
				}
			}
		}
	}
	return din
}

// Params returns the filter and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

var (
	_ Layer = (*Conv1D)(nil)
	_ Layer = (*Conv2D)(nil)
)
