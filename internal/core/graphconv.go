package core

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// GraphConvStack implements the stacked graph-convolution layers of
// Eq. 1: Z_{t+1} = f(D̄⁻¹ Ā Z_t W_t) with f = ReLU, and the concatenation
// Z^{1:h} = [Z_1, …, Z_h] consumed by the pooling stage.
//
// The propagation operator D̄⁻¹Ā is supplied per sample as a graph.CSR;
// the stack holds only the weight matrices W_t.
//
// All per-sample intermediates are drawn from the replica workspace when one
// is installed, so a warmed-up stack allocates nothing per forward/backward.
// Every workspace matrix is fully defined before use (the *Into kernel
// contract) or explicitly zero-gated, since checkouts are dirty.
type GraphConvStack struct {
	Weights []*nn.Param // W_t of shape c_t × c_{t+1}

	ws *nn.Workspace

	// Per-sample caches for the backward pass, sized once to the layer
	// count; the matrices they point at are workspace checkouts valid until
	// the next forward.
	csr    *graph.CSR
	inputs []*tensor.Matrix // Z_t (pre-layer inputs), len == layers
	outs   []*tensor.Matrix // Z_{t+1}, rectified in place, len == layers
	dOuts  []*tensor.Matrix // backward scratch, len == layers
}

// NewGraphConvStack builds h = len(layers) layers over the given weights:
// layers[t] = {W_t}, a c_t × c_{t+1} matrix.
func NewGraphConvStack(layers [][]*tensor.Matrix) *GraphConvStack {
	h := len(layers)
	s := &GraphConvStack{
		inputs: make([]*tensor.Matrix, h),
		outs:   make([]*tensor.Matrix, h),
		dOuts:  make([]*tensor.Matrix, h),
	}
	for i, l := range layers {
		s.Weights = append(s.Weights, nn.NewParam("gconv"+string(rune('0'+i)), l[0]))
	}
	return s
}

// SetWorkspace installs the scratch workspace the stack draws per-sample
// intermediates from.
func (s *GraphConvStack) SetWorkspace(ws *nn.Workspace) { s.ws = ws }

// Params exposes the layer weights to the optimizer.
func (s *GraphConvStack) Params() []*nn.Param { return slices.Clone(s.Weights) }

// Forward runs all graph-convolution layers for one graph and returns the
// concatenated Z^{1:h} (n × Σ c_t). Each layer's propagated product is
// rectified in place, so a layer holds one n × c_{t+1} activation, which
// Backward gates on (gateRelu).
func (s *GraphConvStack) Forward(csr *graph.CSR, x *tensor.Matrix) *tensor.Matrix {
	s.csr = csr
	widest := 0
	for _, w := range s.Weights {
		widest = max(widest, w.Value.Cols)
	}
	f := s.ws.Matrix(x.Rows, widest) // every layer's Z_t·W_t: dead once propagated
	z := x
	for t, w := range s.Weights {
		s.inputs[t] = z
		f.Cols, f.Data = w.Value.Cols, f.Data[:z.Rows*w.Value.Cols]
		tensor.MatMulInto(f, z, w.Value) // Z_t · W_t
		z = s.ws.Matrix(z.Rows, w.Value.Cols)
		csr.SpMMInto(z, f) // D̄⁻¹ Ā · (Z_t W_t)
		rectify(z)
		s.outs[t] = z
	}
	return concatCols(s.ws, s.outs)
}

// Backward consumes ∂L/∂Z^{1:h} and returns ∂L/∂X, accumulating weight
// gradients. Each Z_t receives gradient both from its slice of the
// concatenated output and from layer t+1.
func (s *GraphConvStack) Backward(dconcat *tensor.Matrix) *tensor.Matrix {
	h := len(s.Weights)
	splitCols(s.ws, s.dOuts, dconcat, s.outs)
	var dNext *tensor.Matrix // gradient flowing into Z_t from layer t (w.r.t. its input)
	for t := h - 1; t >= 0; t-- {
		dz := s.dOuts[t]
		if dNext != nil {
			dz.AddInPlace(dNext)
		}
		dpre := gateRelu(dz, s.outs[t]) // through ReLU
		// Through P: dF = Pᵀ · dpre.
		df := s.ws.Matrix(dpre.Rows, dpre.Cols)
		s.csr.SpMMTInto(df, dpre)
		// Through the matmul: dW_t += Z_tᵀ · dF ; dZ_t = dF · W_tᵀ. The
		// weight gradient goes through a scratch product first — the
		// accumulated Grad must see one rounded product per sample, exactly
		// like the allocating MatMul-then-AddInPlace it replaces.
		gw := s.ws.Matrix(s.Weights[t].Value.Rows, s.Weights[t].Value.Cols)
		tensor.MatMulTAInto(gw, s.inputs[t], df)
		s.Weights[t].Gradient().AddInPlace(gw)
		dNext = s.ws.Matrix(df.Rows, s.Weights[t].Value.Rows)
		tensor.MatMulTBInto(dNext, df, s.Weights[t].Value)
	}
	return dNext
}

// concatCols checks out the n × Σ c_t concatenation Z^{1:h} of the layer
// outputs.
func concatCols(ws *nn.Workspace, outs []*tensor.Matrix) *tensor.Matrix {
	total := 0
	for _, o := range outs {
		total += o.Cols
	}
	out := ws.Matrix(outs[0].Rows, total)
	tensor.HConcatInto(out, outs...)
	return out
}

// splitCols splits ∂L/∂Z^{1:h} into one checked-out matrix per layer, as
// wide as that layer's output.
func splitCols(ws *nn.Workspace, dOuts []*tensor.Matrix, dconcat *tensor.Matrix, outs []*tensor.Matrix) {
	off := 0
	for t, o := range outs {
		dOuts[t] = ws.Matrix(dconcat.Rows, o.Cols)
		tensor.SliceColsInto(dOuts[t], dconcat, off, off+o.Cols)
		off += o.Cols
	}
}

// gateRelu carries a layer's output gradient dz back through its rectifier
// in place, zeroing it wherever the rectified output out is not positive —
// exactly where the pre-activation was not (relu(x) > 0 ⇔ x > 0, NaN
// included), so the gate matches one on the pre-activation bit for bit.
func gateRelu(dz, out *tensor.Matrix) *tensor.Matrix {
	for i, v := range out.Data {
		if v <= 0 {
			dz.Data[i] = 0
		}
	}
	return dz
}

// rectify applies relu in place — x where x > 0, else +0, so NaN and −0
// both become +0 — without a branch: on pre-activations the sign test
// mispredicts about half the time, and those stalls, not arithmetic, were
// its cost. x > 0 exactly when x's bits b satisfy 0 < b ≤ +Inf's bits as
// unsigned integers (negatives have the top bit set, NaNs lie above +Inf),
// which is b−1 < +Inf's bits: the borrow of that subtraction is the mask.
func rectify(m *tensor.Matrix) {
	const inf = 0x7ff0000000000000
	for i, v := range m.Data {
		b := math.Float64bits(v)
		_, keep := bits.Sub64(b-1, inf, 0)
		m.Data[i] = math.Float64frombits(b & -keep)
	}
}
