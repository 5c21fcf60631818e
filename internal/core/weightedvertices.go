package core

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// WeightedVertices is the paper's first extension (Section III-B): a
// single-channel Conv1D of kernel size k and stride k applied to the
// transposed sort-pooling output, equivalent to
//
//	E = f(W × Zsp)            (Eq. 3)
//	E_c = f(Σ_i W_i · Zsp_{i,c})   (Eq. 4)
//
// i.e. the graph embedding is a learned weighted sum of the k kept vertex
// embeddings, with an elementwise ReLU. Input: 1×k×D volume (the sort-pool
// output); output: 1×1×D.
type WeightedVertices struct {
	K int
	W *nn.Param // 1×K row of vertex weights

	ws *nn.Workspace

	lastIn  *nn.Volume
	lastOut *nn.Volume // rectified in place: > 0 exactly where W × Zsp is
}

// NewWeightedVertices builds the layer over the 1×k row of vertex weights w.
func NewWeightedVertices(w *tensor.Matrix) *WeightedVertices {
	return &WeightedVertices{K: w.Cols, W: nn.NewParam("weightedvertices.W", w)}
}

// SetWorkspace installs the scratch workspace the layer draws its output and
// gradient volumes from.
func (l *WeightedVertices) SetWorkspace(ws *nn.Workspace) { l.ws = ws }

// Forward computes E = relu(W × Zsp).
func (l *WeightedVertices) Forward(in *nn.Volume, _ bool) *nn.Volume {
	if in.C != 1 || in.H != l.K {
		panic("core: WeightedVertices expects a 1×k×D input")
	}
	l.lastIn = in
	d := in.W
	out := l.ws.Volume(1, 1, d)
	out.Zero() // the loop below accumulates
	for i := 0; i < l.K; i++ {
		wi := l.W.Value.Data[i]
		for c, v := range in.Data[i*d : (i+1)*d] {
			out.Data[c] += wi * v
		}
	}
	for c, v := range out.Data {
		if !(v > 0) {
			out.Data[c] = 0
		}
	}
	l.lastOut = out
	return out
}

// Backward routes gradients through the ReLU (gated on its output) and the
// weighted sum, accumulating ∂L/∂W.
func (l *WeightedVertices) Backward(dout *nn.Volume) *nn.Volume {
	d := l.lastIn.W
	din := l.ws.Volume(1, l.K, d)
	gW := l.W.Gradient()
	for i := 0; i < l.K; i++ {
		wi := l.W.Value.Data[i]
		inRow := l.lastIn.Data[i*d : (i+1)*d]
		dinRow := din.Data[i*d : (i+1)*d]
		gw := 0.0
		for c, g := range dout.Data {
			if !(l.lastOut.Data[c] > 0) {
				g = 0
			}
			dinRow[c] = wi * g
			gw += g * inRow[c]
		}
		gW.Data[i] += gw
	}
	return din
}

// Params returns the vertex-weight parameter.
func (l *WeightedVertices) Params() []*nn.Param { return []*nn.Param{l.W} }

var (
	_ nn.Layer         = (*WeightedVertices)(nil)
	_ nn.WorkspaceUser = (*WeightedVertices)(nil)
)
