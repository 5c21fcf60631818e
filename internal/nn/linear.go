package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Linear is a fully connected layer y = xW + b operating on the flattened
// input volume. The input may have any shape; it is treated as a vector of
// length C*H*W. Output is a 1×1×out volume.
type Linear struct {
	In, Out int
	W       *Param // In×Out
	B       *Param // 1×Out

	wsHolder
	lastIn *Volume
}

// NewLinear builds a Linear layer over the in×out weights w and the 1×out
// bias b.
func NewLinear(w, b *tensor.Matrix) *Linear {
	in, out := w.Rows, w.Cols
	return &Linear{
		In:  in,
		Out: out,
		W:   NewParam(fmt.Sprintf("linear%dx%d.W", in, out), w),
		B:   NewParam(fmt.Sprintf("linear%dx%d.B", in, out), b),
	}
}

// Forward computes xW + b: each output cell starts at its bias and adds
// x[i]·W[i][j] for i ascending (tensor.AddVecMatInto, in AVX2 lanes where
// the CPU has them), the per-cell chain of the column walk it replaced, so
// the result is bit-identical.
func (l *Linear) Forward(in *Volume, _ bool) *Volume {
	if in.Len() != l.In {
		panic(fmt.Sprintf("nn: linear expects %d inputs, got %d", l.In, in.Len()))
	}
	l.lastIn = in
	out := l.ws.Volume(1, 1, l.Out)
	copy(out.Data, l.B.Value.Row(0))
	tensor.AddVecMatInto(out.Data, in.Data, l.W.Value)
	return out
}

// Backward accumulates ∂L/∂W = xᵀ·dout, ∂L/∂b = dout and returns
// ∂L/∂x = dout·Wᵀ reshaped to the input's shape.
func (l *Linear) Backward(dout *Volume) *Volume {
	if dout.Len() != l.Out {
		panic(fmt.Sprintf("nn: linear backward expects %d grads, got %d", l.Out, dout.Len()))
	}
	in := l.lastIn
	din := l.ws.Volume(in.C, in.H, in.W)
	gW, gB := l.W.Gradient(), l.B.Gradient()
	for i, x := range in.Data {
		gRow := gW.Row(i)
		wRow := l.W.Value.Row(i)
		acc := 0.0
		for j, g := range dout.Data {
			gRow[j] += x * g
			acc += g * wRow[j]
		}
		din.Data[i] = acc
	}
	bGrad := gB.Row(0)
	for j, g := range dout.Data {
		bGrad[j] += g
	}
	return din
}

// Params returns the weight and bias parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

var _ Layer = (*Linear)(nil)
