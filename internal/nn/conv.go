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
					sum += float64(w[wOff+k] * inRow[start+k])
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
					gw[wOff+k] += float64(g * inRow[start+k])
					dinRow[start+k] += float64(g * w[wOff+k])
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

	// The AVX2 forward's scratch, over OutC rounded up to a multiple of 4
	// lanes; padding lanes stay 0.
	packed []float64 // W packed [tap][c], lanes per tap
	bias   []float64 // B over lanes
	cell   []float64 // one output cell's lanes
}

// NewConv2D builds a 2-D convolution layer over the OutC × (InC·kh·kw)
// filters w and the 1 × OutC bias b.
func NewConv2D(w, b *tensor.Matrix, kh, kw, stride, pad int) *Conv2D {
	if kh <= 0 || kw <= 0 || stride <= 0 || pad < 0 {
		panic("nn: conv2d invalid geometry")
	}
	lanes := (w.Rows + 3) &^ 3
	return &Conv2D{
		InC: w.Cols / (kh * kw), OutC: w.Rows, KH: kh, KW: kw, Stride: stride, Pad: pad,
		W:      NewParam("conv2d.W", w),
		B:      NewParam("conv2d.B", b),
		packed: make([]float64, w.Cols*lanes),
		bias:   make([]float64, lanes),
		cell:   make([]float64, lanes),
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

// Forward performs the cross-correlation. Per output cell and channel the
// chain is the bias, then every in-bounds tap in ascending (ic, ky, kx) as
// sequential adds: conv2dReference's loop, which is also the path of
// machines without AVX2. On amd64 with AVX2 the cell's channels run side by
// side (conv2dForward in kernels_amd64.go), each lane the same chain, so
// the output is bit-identical either way.
func (c *Conv2D) Forward(in *Volume, _ bool) *Volume {
	if in.C != c.InC {
		panic(fmt.Sprintf("nn: conv2d expects %d channels, got %d", c.InC, in.C))
	}
	c.lastIn = in
	oh, ow := c.OutDims(in.H, in.W)
	out := c.ws.Volume(c.OutC, oh, ow)
	conv2dForward(c, in, out)
	return out
}

// conv2dReference writes Conv2D's output into out with a per-element
// bounds test: per output cell, bias first, then every in-bounds tap in
// ascending (ic, ky, kx) order. This nesting is the operational definition
// of the forward accumulation chain the golden training checksums pin;
// every product is written float64(w*x), so no compiler fuses it into an
// FMA.
func conv2dReference(c *Conv2D, in, out *Volume) {
	i := 0
	for oc := 0; oc < c.OutC; oc++ {
		w := c.W.Value.Row(oc)
		for oy := 0; oy < out.H; oy++ {
			for ox := 0; ox < out.W; ox++ {
				acc := c.B.Value.Data[oc]
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
							acc += float64(w[(ic*c.KH+ky)*c.KW+kx] * in.Data[(ic*in.H+y)*in.W+x])
						}
					}
				}
				out.Data[i] = acc
				i++
			}
		}
	}
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
							gwSeg[t] += float64(g * iv)
							dinRow[t] += float64(g * wSeg[t])
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
