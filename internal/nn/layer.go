package nn

import "repro/internal/tensor"

// Param is a trainable parameter with its accumulated gradient. Gradients
// accumulate across the samples of a mini-batch; the optimizer consumes and
// zeroes them on Step. Grad is an empty 0×0 matrix until a Backward or an
// optimizer asks for it (Gradient), so a parameter that only predicts holds
// none.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// NewParam wraps a value in a Param whose gradient is not yet allocated.
func NewParam(name string, value *tensor.Matrix) *Param {
	return &Param{Name: name, Value: value, Grad: &tensor.Matrix{}}
}

// Gradient returns the buffer p's gradient accumulates into, allocating it
// zeroed, in place behind Grad, on first use.
func (p *Param) Gradient() *tensor.Matrix {
	if p.Grad.Data == nil {
		*p.Grad = *tensor.New(p.Value.Rows, p.Value.Cols)
	}
	return p.Grad
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable module that processes one sample at a time.
// Forward caches whatever Backward needs; Backward receives ∂L/∂out and
// returns ∂L/∂in while accumulating parameter gradients.
type Layer interface {
	Forward(in *Volume, train bool) *Volume
	Backward(dout *Volume) *Volume
	Params() []*Param
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward runs all layers in order.
func (s *Sequential) Forward(in *Volume, train bool) *Volume {
	out := in
	for _, l := range s.Layers {
		out = l.Forward(out, train)
	}
	return out
}

// Backward runs all layers in reverse order.
func (s *Sequential) Backward(dout *Volume) *Volume {
	grad := dout
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// SetWorkspace propagates the scratch workspace to every contained layer
// that can use one.
func (s *Sequential) SetWorkspace(ws *Workspace) {
	for _, l := range s.Layers {
		if u, ok := l.(WorkspaceUser); ok {
			u.SetWorkspace(ws)
		}
	}
}

var (
	_ Layer         = (*Sequential)(nil)
	_ WorkspaceUser = (*Sequential)(nil)
)
