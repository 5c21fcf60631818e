package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// ConvAMP is the first stage of the AdaptiveMaxPooling head (Section III-C)
// as one layer: Conv2D(1→OutC, 3×3, stride 1, same padding) over the 1×n×W
// concatenation Z^{1:h}, ReLU, then AdaptiveMaxPool2D to a fixed OutH×OutW
// grid. It is bit-identical — outputs, input gradient, parameter gradients —
// to running those three layers in sequence, but never materialises their
// OutC×n×W maps: scratch is O(OutC·OutH·OutW + OutC·W) whatever n is, and
// the backward pass touches only the ≤ OutC·OutH·OutW cells that won a
// window.
//
// Forward. The conv map is computed one row at a time, every channel of a
// cell side by side: the row is laid out [x][c] with OutC rounded up to a
// multiple of four lanes, and each lane runs Conv2D's chain exactly — bias,
// then the in-bounds taps in ascending (ky, kx), sequential adds. The row
// is then folded into the running winner of every grid cell whose window
// holds it: seeded from the window's first column, replaced only by a
// strictly greater value, whose conv position is recorded beside it. Rows
// arrive in ascending y, so a cell's winner is the first occurrence of its
// window's maximum in (y, x) order:
// AdaptiveMaxPool2D's scan and tie-breaking. ReLU is monotone, so
// max∘ReLU = ReLU∘max and it is applied to the winners only. Where a
// window's maximum is ≤ 0 the recorded argmax differs from the three-layer
// path's (which sees an all-zero window and keeps its first element), but
// there the ReLU gate zeroes the gradient on both paths. The two inner loops
// — a row's interior cells and its fold into one grid row's windows — are
// convRowInterior and foldRow: AVX2 assembly on amd64 machines that have
// it, the Go loops of convamp_generic.go elsewhere, bit-identical to each
// other.
//
// Backward. Per channel, the cells whose winner is > 0 are ordered by
// conv-map position (stable, so cells sharing a winner — overlapping windows
// can crown one conv cell twice — keep grid order), their gradients summed
// per position from zero in that order (AdaptiveMaxPool2D's
// din[argmax] += g), and each non-zero sum applied through the 3×3 taps in
// ascending position. That is Conv2D.Backward's scan with every g == 0 cell
// it would skip left out, so B.Grad, W.Grad and din accumulate the same
// terms in the same order.
type ConvAMP struct {
	OutC, OutH, OutW int
	W                *Param // OutC × 9
	B                *Param // 1 × OutC

	wsHolder
	lastIn  *Volume
	lastOut *Volume // ReLU'd winners: > 0 exactly where the gate is open

	// Fixed-size scratch, allocated once at construction.
	lanes  int       // OutC rounded up to a multiple of 4
	taps   []float64 // W packed [tap][c], lanes per tap; padding lanes stay 0
	bias   []float64 // B over lanes; padding lanes stay 0
	best   []float64 // running winners, [oy][ox][c] with lanes per cell
	pos    []int     // their conv positions y·W+x, laid out as best; Backward reads them
	y0, y1 []int     // adaptive window [y0, y1) of each grid row
	x0, x1 []int     // adaptive window [x0, x1) of each grid column
	order  []int     // backward: one channel's open cells, by conv position
}

// NewConvAMP builds the fused layer over the OutC × 9 filters w and the
// 1 × OutC bias b — the parameters of NewConv2D(w, b, 3, 3, 1, 1), named
// the same, so models and checkpoints are interchangeable with the
// three-layer construction.
func NewConvAMP(w, b *tensor.Matrix, outH, outW int) *ConvAMP {
	outC := w.Rows
	if outC <= 0 || w.Cols != 9 || outH <= 0 || outW <= 0 {
		panic("nn: convamp needs OutC×9 filters and positive output dims")
	}
	lanes := (outC + 3) &^ 3
	return &ConvAMP{
		OutC: outC, OutH: outH, OutW: outW,
		W:     NewParam("conv2d.W", w),
		B:     NewParam("conv2d.B", b),
		lanes: lanes,
		taps:  make([]float64, 9*lanes),
		bias:  make([]float64, lanes),
		best:  make([]float64, outH*outW*lanes),
		pos:   make([]int, outH*outW*lanes),
		y0:    make([]int, outH),
		y1:    make([]int, outH),
		x0:    make([]int, outW),
		x1:    make([]int, outW),
		order: make([]int, outH*outW),
	}
}

// Forward convolves, rectifies and pools in one sweep over the input rows.
func (l *ConvAMP) Forward(in *Volume, _ bool) *Volume {
	if in.C != 1 || in.H == 0 || in.W == 0 {
		panic(fmt.Sprintf("nn: convamp expects a non-empty 1xHxW input, got %dx%dx%d", in.C, in.H, in.W))
	}
	l.lastIn = in
	h, w, s := in.H, in.W, l.lanes
	out := l.ws.Volume(l.OutC, l.OutH, l.OutW)
	l.lastOut = out
	y0, y1, x0, x1 := l.y0, l.y1, l.x0, l.x1
	for oy := range y0 {
		y0[oy], y1[oy] = adaptiveWindow(oy, l.OutH, h)
	}
	for ox := range x0 {
		x0[ox], x1[ox] = adaptiveWindow(ox, l.OutW, w)
	}
	for c := 0; c < l.OutC; c++ {
		for t, v := range l.W.Value.Row(c) {
			l.taps[t*s+c] = v
		}
	}
	copy(l.bias, l.B.Value.Data)
	row := l.ws.Floats(w * s)

	// Window starts and ends both ascend with oy, so the grid rows holding
	// conv row y are the contiguous range [oyLo, oyHi), and both ends only
	// move forward as y grows.
	oyLo, oyHi := 0, 0
	for y := 0; y < h; y++ {
		for oyLo < l.OutH && y1[oyLo] <= y {
			oyLo++
		}
		for oyHi < l.OutH && y0[oyHi] <= y {
			oyHi++
		}
		l.convRow(row, in, y)
		for oy := oyLo; oy < oyHi; oy++ {
			best, pos := l.best[oy*l.OutW*s:(oy+1)*l.OutW*s], l.pos[oy*l.OutW*s:(oy+1)*l.OutW*s]
			if y == y0[oy] {
				for ox, lo := range x0 {
					copy(best[ox*s:(ox+1)*s], row[lo*s:(lo+1)*s])
					for c := range s {
						pos[ox*s+c] = y*w + lo
					}
				}
			}
			foldRow(best, pos, row, x0, x1, y*w)
		}
	}
	cells := l.OutH * l.OutW
	for c := 0; c < l.OutC; c++ {
		dst := out.Data[c*cells : (c+1)*cells]
		for i := range dst {
			b := math.Float64bits(l.best[i*s+c])
			dst[i] = math.Float64frombits(b & reluKeepMask(b))
		}
	}
	return out
}

// convRow writes conv row y into row, [x][c]: the interior cells through
// convRowInterior, the two edge columns — which miss the taps that fall
// outside the map — here, per channel in the same bias-then-taps chain.
// Padding lanes of the edge columns are left as they were; nothing reads
// them.
func (l *ConvAMP) convRow(row []float64, in *Volume, y int) {
	w, s := in.W, l.lanes
	kyLo, kyHi := tapSpan(y-1, 3, in.H)
	src := in.Data[(y-1+kyLo)*w : (y-1+kyHi)*w]
	taps := l.taps[kyLo*3*s : kyHi*3*s]
	for _, x := range [2]int{0, w - 1} {
		kxLo, kxHi := tapSpan(x-1, 3, w)
		cell := row[x*s : x*s+l.OutC]
		copy(cell, l.bias)
		for r := 0; r < kyHi-kyLo; r++ {
			for kx := kxLo; kx < kxHi; kx++ {
				v, k := src[r*w+x-1+kx], taps[(r*3+kx)*s:]
				k = k[:len(cell)]
				for c, kc := range k {
					cell[c] += float64(kc * v)
				}
			}
		}
	}
	if w > 2 {
		convRowInterior(row, src, taps, l.bias, w)
	}
}

// Backward accumulates filter/bias gradients from the winning conv cells
// only and returns the input gradient.
func (l *ConvAMP) Backward(dout *Volume) *Volume {
	in := l.lastIn
	h, w := in.H, in.W
	din := l.ws.Volume(1, h, w)
	din.Zero() // the scatter below accumulates
	gW, gB := l.W.Gradient(), l.B.Gradient()
	cells, s := l.OutH*l.OutW, l.lanes
	for oc := 0; oc < l.OutC; oc++ {
		k := l.W.Value.Row(oc)
		gk := gW.Row(oc)
		gate := l.lastOut.Data[oc*cells : (oc+1)*cells]
		args := l.pos[oc:] // cell i's winner is args[i*s]
		gs := dout.Data[oc*cells : (oc+1)*cells]

		// Stable insertion sort of the open cells by conv position; grid
		// order already runs roughly with position, so shifts are short.
		order := l.order[:0]
		for i, v := range gate {
			if v > 0 {
				j := len(order)
				order = order[:j+1]
				for ; j > 0 && args[order[j-1]*s] > args[i*s]; j-- {
					order[j] = order[j-1]
				}
				order[j] = i
			}
		}
		for i := 0; i < len(order); {
			pos := args[order[i]*s]
			g := 0.0
			for ; i < len(order) && args[order[i]*s] == pos; i++ {
				g += gs[order[i]]
			}
			if g == 0 {
				continue
			}
			gB.Data[oc] += g
			y, x := pos/w, pos%w
			kyLo, kyHi := 0, 3
			if y == 0 {
				kyLo = 1
			}
			if y == h-1 {
				kyHi = 2
			}
			kxLo, kxHi := 0, 3
			if x == 0 {
				kxLo = 1
			}
			if x == w-1 {
				kxHi = 2
			}
			for ky := kyLo; ky < kyHi; ky++ {
				base := (y-1+ky)*w + x - 1
				for kx := kxLo; kx < kxHi; kx++ {
					gk[ky*3+kx] += float64(g * in.Data[base+kx])
					din.Data[base+kx] += float64(g * k[ky*3+kx])
				}
			}
		}
	}
	return din
}

// Params returns the filter and bias parameters.
func (l *ConvAMP) Params() []*Param { return []*Param{l.W, l.B} }

var (
	_ Layer         = (*ConvAMP)(nil)
	_ WorkspaceUser = (*ConvAMP)(nil)
)
