package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// This file is the float32 inference tier of the layer zoo: immutable,
// forward-only snapshots of trained layers. A frozen layer holds float32
// copies of its weights and no per-sample caches, so unlike a Layer it is
// safe for concurrent use — the serving tier runs one frozen network from
// many goroutines without replicas. Frozen outputs are approximate
// (float32 rounding, ≈1e-5 relative against the float64 path); the exact
// bit-deterministic path remains the Layer interface.

// Volume32 is the float32 counterpart of Volume: a C×H×W activation block
// in channel-major order.
type Volume32 struct {
	C, H, W int
	Data    []float32
}

// NewVolume32 allocates a zeroed C×H×W float32 volume.
func NewVolume32(c, h, w int) *Volume32 {
	return &Volume32{C: c, H: h, W: w, Data: make([]float32, c*h*w)}
}

// Len returns the element count.
func (v *Volume32) Len() int { return v.C * v.H * v.W }

// Layer32 is a forward-only float32 layer. Implementations are stateless
// between calls (they allocate their outputs) and safe for concurrent use.
type Layer32 interface {
	Forward32(in *Volume32) *Volume32
}

// Freezable32 is implemented by layers that can snapshot themselves into
// the float32 inference tier.
type Freezable32 interface {
	Freeze32() Layer32
}

// Sequential32 chains frozen layers.
type Sequential32 struct {
	Layers []Layer32
}

// Forward32 runs all layers in order.
func (s *Sequential32) Forward32(in *Volume32) *Volume32 {
	out := in
	for _, l := range s.Layers {
		out = l.Forward32(out)
	}
	return out
}

// Freeze32 snapshots every contained layer into the float32 tier. It fails
// if any layer does not implement Freezable32.
func (s *Sequential) Freeze32() (*Sequential32, error) {
	out := &Sequential32{Layers: make([]Layer32, 0, len(s.Layers))}
	for _, l := range s.Layers {
		f, ok := l.(Freezable32)
		if !ok {
			return nil, fmt.Errorf("nn: layer %T has no float32 snapshot", l)
		}
		out.Layers = append(out.Layers, f.Freeze32())
	}
	return out, nil
}

// linear32 is the frozen Linear.
type linear32 struct {
	in, out int
	w       *tensor.Matrix32 // in×out
	b       []float32
}

// Freeze32 snapshots the layer's weights into a forward-only float32 copy.
func (l *Linear) Freeze32() Layer32 {
	b := make([]float32, l.Out)
	for j, v := range l.B.Value.Row(0) {
		b[j] = float32(v)
	}
	return &linear32{in: l.In, out: l.Out, w: tensor.NewMatrix32From(l.W.Value), b: b}
}

func (l *linear32) Forward32(in *Volume32) *Volume32 {
	if in.Len() != l.in {
		panic(fmt.Sprintf("nn: linear32 expects %d inputs, got %d", l.in, in.Len()))
	}
	out := NewVolume32(1, 1, l.out)
	copy(out.Data, l.b)
	od := out.Data
	for i, x := range in.Data {
		if x == 0 {
			continue
		}
		wRow := l.w.Row(i)
		for j, wv := range wRow {
			od[j] += x * wv
		}
	}
	return out
}

// conv1d32 is the frozen Conv1D.
type conv1d32 struct {
	inC, outC, kernel, stride int
	w                         *tensor.Matrix32 // outC × (inC*kernel)
	b                         []float32
}

// Freeze32 snapshots the layer's filters into a forward-only float32 copy.
func (c *Conv1D) Freeze32() Layer32 {
	b := make([]float32, c.OutC)
	for j, v := range c.B.Value.Row(0) {
		b[j] = float32(v)
	}
	return &conv1d32{
		inC: c.InC, outC: c.OutC, kernel: c.Kernel, stride: c.Stride,
		w: tensor.NewMatrix32From(c.W.Value), b: b,
	}
}

func (c *conv1d32) Forward32(in *Volume32) *Volume32 {
	if in.C != c.inC || in.H != 1 {
		panic(fmt.Sprintf("nn: conv1d32 expects %dx1xW, got %dx%dx%d", c.inC, in.C, in.H, in.W))
	}
	ow := 0
	if in.W >= c.kernel {
		ow = (in.W-c.kernel)/c.stride + 1
	}
	out := NewVolume32(c.outC, 1, ow)
	for oc := 0; oc < c.outC; oc++ {
		w := c.w.Row(oc)
		bias := c.b[oc]
		oRow := out.Data[oc*ow : (oc+1)*ow]
		for ox := 0; ox < ow; ox++ {
			start := ox * c.stride
			sum := bias
			for ic := 0; ic < c.inC; ic++ {
				inRow := in.Data[ic*in.W+start : ic*in.W+start+c.kernel]
				wSeg := w[ic*c.kernel : (ic+1)*c.kernel]
				for k, iv := range inRow {
					sum += wSeg[k] * iv
				}
			}
			oRow[ox] = sum
		}
	}
	return out
}

// conv2d32 is the frozen Conv2D.
type conv2d32 struct {
	inC, outC, kh, kw, stride, pad int
	w                              *tensor.Matrix32 // outC × (inC*kh*kw)
	b                              []float32
}

// Freeze32 snapshots the layer's filters into a forward-only float32 copy.
func (c *Conv2D) Freeze32() Layer32 {
	b := make([]float32, c.OutC)
	for j, v := range c.B.Value.Row(0) {
		b[j] = float32(v)
	}
	return &conv2d32{
		inC: c.InC, outC: c.OutC, kh: c.KH, kw: c.KW, stride: c.Stride, pad: c.Pad,
		w: tensor.NewMatrix32From(c.W.Value), b: b,
	}
}

func (c *conv2d32) Forward32(in *Volume32) *Volume32 {
	if in.C != c.inC {
		panic(fmt.Sprintf("nn: conv2d32 expects %d channels, got %d", c.inC, in.C))
	}
	oh := (in.H+2*c.pad-c.kh)/c.stride + 1
	ow := (in.W+2*c.pad-c.kw)/c.stride + 1
	if oh < 0 {
		oh = 0
	}
	if ow < 0 {
		ow = 0
	}
	out := NewVolume32(c.outC, oh, ow)
	if c.stride == 1 && c.kh == 3 && c.kw == 3 {
		c.forward3x3(in, out)
		return out
	}
	inHW := in.H * in.W
	for oc := 0; oc < c.outC; oc++ {
		w := c.w.Row(oc)
		bias := c.b[oc]
		oRow := out.Data[oc*oh*ow : (oc+1)*oh*ow]
		oi := 0
		for oy := 0; oy < oh; oy++ {
			sy := oy*c.stride - c.pad
			kyLo, kyHi := 0, c.kh
			if sy < 0 {
				kyLo = -sy
			}
			if over := sy + c.kh - in.H; over > 0 {
				kyHi = c.kh - over
			}
			for ox := 0; ox < ow; ox++ {
				sx := ox*c.stride - c.pad
				kxLo, kxHi := 0, c.kw
				if sx < 0 {
					kxLo = -sx
				}
				if over := sx + c.kw - in.W; over > 0 {
					kxHi = c.kw - over
				}
				acc := bias
				for ic := 0; ic < c.inC; ic++ {
					inCh := in.Data[ic*inHW : (ic+1)*inHW]
					for ky := kyLo; ky < kyHi; ky++ {
						base := (sy+ky)*in.W + sx
						inRow := inCh[base+kxLo : base+kxHi]
						wSeg := w[(ic*c.kh+ky)*c.kw+kxLo : (ic*c.kh+ky)*c.kw+kxHi]
						for t, iv := range inRow {
							acc += wSeg[t] * iv
						}
					}
				}
				oRow[oi] = acc
				oi++
			}
		}
	}
	return out
}

// forward3x3 is the stride-1 3×3 specialization — the shape the AMP head
// uses, and the dominant cost of frozen inference. Unlike the float64
// Conv2D fast path it owes no accumulation-order contract, so it picks the
// cheapest structure outright: bias-seed the output channel once, then
// accumulate one (input channel, kernel row) sweep at a time over the
// interior columns, with the boundary columns and clipped kernel rows
// handled by a per-cell gather.
func (c *conv2d32) forward3x3(in, out *Volume32) {
	oh, ow := out.H, out.W
	inHW := in.H * in.W
	// Interior output columns read three full input columns: sx ≥ 0 and
	// sx+2 ≤ in.W-1, where sx = ox - pad.
	fLo := c.pad
	fHi := in.W - 2 + c.pad
	if fLo > ow {
		fLo = ow
	}
	if fHi < fLo {
		fHi = fLo
	}
	if fHi > ow {
		fHi = ow
	}
	for oc := 0; oc < c.outC; oc++ {
		oCh := out.Data[oc*oh*ow : (oc+1)*oh*ow]
		bias := c.b[oc]
		for i := range oCh {
			oCh[i] = bias
		}
		w := c.w.Row(oc)
		for ic := 0; ic < c.inC; ic++ {
			inCh := in.Data[ic*inHW : (ic+1)*inHW]
			wk := w[ic*9 : ic*9+9]
			for oy := 0; oy < oh; oy++ {
				sy := oy - c.pad
				kyLo, kyHi := 0, 3
				if sy < 0 {
					kyLo = -sy
				}
				if over := sy + 3 - in.H; over > 0 {
					kyHi = 3 - over
				}
				oRow := oCh[oy*ow : (oy+1)*ow]
				for ox := 0; ox < fLo; ox++ {
					oRow[ox] += conv2dGather32(inCh, wk, ox-c.pad, sy, kyLo, kyHi, in.W)
				}
				for ox := fHi; ox < ow; ox++ {
					oRow[ox] += conv2dGather32(inCh, wk, ox-c.pad, sy, kyLo, kyHi, in.W)
				}
				if kyLo == 0 && kyHi == 3 {
					i0 := inCh[sy*in.W : (sy+1)*in.W]
					i1 := inCh[(sy+1)*in.W : (sy+2)*in.W]
					i2 := inCh[(sy+2)*in.W : (sy+3)*in.W]
					w00, w01, w02 := wk[0], wk[1], wk[2]
					w10, w11, w12 := wk[3], wk[4], wk[5]
					w20, w21, w22 := wk[6], wk[7], wk[8]
					for ox := fLo; ox < fHi; ox++ {
						x := ox - c.pad
						oRow[ox] += w00*i0[x] + w01*i0[x+1] + w02*i0[x+2] +
							w10*i1[x] + w11*i1[x+1] + w12*i1[x+2] +
							w20*i2[x] + w21*i2[x+1] + w22*i2[x+2]
					}
				} else {
					for ky := kyLo; ky < kyHi; ky++ {
						row := inCh[(sy+ky)*in.W : (sy+ky+1)*in.W]
						w0, w1, w2 := wk[ky*3], wk[ky*3+1], wk[ky*3+2]
						for ox := fLo; ox < fHi; ox++ {
							x := ox - c.pad
							oRow[ox] += w0*row[x] + w1*row[x+1] + w2*row[x+2]
						}
					}
				}
			}
		}
	}
}

// conv2dGather32 sums the in-bounds 3×3 taps for one boundary output cell.
func conv2dGather32(inCh, wk []float32, sx, sy, kyLo, kyHi, inW int) float32 {
	kxLo, kxHi := 0, 3
	if sx < 0 {
		kxLo = -sx
	}
	if over := sx + 3 - inW; over > 0 {
		kxHi = 3 - over
	}
	var acc float32
	for ky := kyLo; ky < kyHi; ky++ {
		base := (sy+ky)*inW + sx
		for kx := kxLo; kx < kxHi; kx++ {
			acc += wk[ky*3+kx] * inCh[base+kx]
		}
	}
	return acc
}

// Freeze32 snapshots the fused layer as the three frozen layers it stands
// for; the float32 tier owes no accumulation-order contract, so it needs no
// fused kernel of its own.
func (l *ConvAMP) Freeze32() Layer32 {
	conv := &Conv2D{InC: 1, OutC: l.OutC, KH: 3, KW: 3, Stride: 1, Pad: 1, W: l.W, B: l.B}
	return &Sequential32{Layers: []Layer32{
		conv.Freeze32(), relu32{}, &adaptiveMaxPool32{outH: l.OutH, outW: l.OutW},
	}}
}

// maxPool32 is the frozen MaxPool2D.
type maxPool32 struct {
	kh, kw, stride int
}

// Freeze32 snapshots the pooling geometry (it has no weights).
func (p *MaxPool2D) Freeze32() Layer32 {
	return &maxPool32{kh: p.KH, kw: p.KW, stride: p.Stride}
}

func (p *maxPool32) Forward32(in *Volume32) *Volume32 {
	oh := (in.H-p.kh)/p.stride + 1
	ow := (in.W-p.kw)/p.stride + 1
	if oh < 0 {
		oh = 0
	}
	if ow < 0 {
		ow = 0
	}
	out := NewVolume32(in.C, oh, ow)
	oi := 0
	for c := 0; c < in.C; c++ {
		chBase := c * in.H * in.W
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				y0, x0 := oy*p.stride, ox*p.stride
				best := in.Data[chBase+y0*in.W+x0]
				for ky := 0; ky < p.kh; ky++ {
					rowBase := chBase + (y0+ky)*in.W + x0
					row := in.Data[rowBase : rowBase+p.kw]
					for _, v := range row {
						if v > best {
							best = v
						}
					}
				}
				out.Data[oi] = best
				oi++
			}
		}
	}
	return out
}

// adaptiveMaxPool32 is the frozen AdaptiveMaxPool2D.
type adaptiveMaxPool32 struct {
	outH, outW int
}

// Freeze32 snapshots the pooling geometry (it has no weights).
func (p *AdaptiveMaxPool2D) Freeze32() Layer32 {
	return &adaptiveMaxPool32{outH: p.OutH, outW: p.OutW}
}

func (p *adaptiveMaxPool32) Forward32(in *Volume32) *Volume32 {
	if in.H == 0 || in.W == 0 {
		panic(fmt.Sprintf("nn: adaptive maxpool32 on empty input %dx%dx%d", in.C, in.H, in.W))
	}
	out := NewVolume32(in.C, p.outH, p.outW)
	oi := 0
	for c := 0; c < in.C; c++ {
		chBase := c * in.H * in.W
		for oy := 0; oy < p.outH; oy++ {
			y0, y1 := adaptiveWindow(oy, p.outH, in.H)
			for ox := 0; ox < p.outW; ox++ {
				x0, x1 := adaptiveWindow(ox, p.outW, in.W)
				best := in.Data[chBase+y0*in.W+x0]
				for y := y0; y < y1; y++ {
					rowBase := chBase + y*in.W + x0
					row := in.Data[rowBase : rowBase+x1-x0]
					for _, v := range row {
						if v > best {
							best = v
						}
					}
				}
				out.Data[oi] = best
				oi++
			}
		}
	}
	return out
}

// relu32 is the frozen ReLU.
type relu32 struct{}

// Freeze32 snapshots the rectifier (it has no weights).
func (r *ReLU) Freeze32() Layer32 { return relu32{} }

func (relu32) Forward32(in *Volume32) *Volume32 {
	out := NewVolume32(in.C, in.H, in.W)
	for i, v := range in.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

// identity32 passes activations through unchanged — the frozen form of
// layers that only act during training.
type identity32 struct{}

// Freeze32 returns the identity: inverted dropout needs no inference-time
// correction.
func (d *Dropout) Freeze32() Layer32 { return identity32{} }

func (identity32) Forward32(in *Volume32) *Volume32 { return in }

var (
	_ Freezable32 = (*Linear)(nil)
	_ Freezable32 = (*Conv1D)(nil)
	_ Freezable32 = (*Conv2D)(nil)
	_ Freezable32 = (*ConvAMP)(nil)
	_ Freezable32 = (*MaxPool2D)(nil)
	_ Freezable32 = (*AdaptiveMaxPool2D)(nil)
	_ Freezable32 = (*ReLU)(nil)
	_ Freezable32 = (*Dropout)(nil)
)
