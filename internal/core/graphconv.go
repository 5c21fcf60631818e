package core

import (
	"math/rand"

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
	pre    []*tensor.Matrix // P·Z_t·W_t (pre-activation), len == layers
	outs   []*tensor.Matrix // Z_{t+1} (post-activation), len == layers
	dOuts  []*tensor.Matrix // backward scratch, len == layers
}

// NewGraphConvStack builds h = len(sizes) layers mapping attrDim →
// sizes[0] → sizes[1] → … with Glorot-uniform weights.
func NewGraphConvStack(rng *rand.Rand, attrDim int, sizes []int) *GraphConvStack {
	h := len(sizes)
	s := &GraphConvStack{
		inputs: make([]*tensor.Matrix, h),
		pre:    make([]*tensor.Matrix, h),
		outs:   make([]*tensor.Matrix, h),
		dOuts:  make([]*tensor.Matrix, h),
	}
	in := attrDim
	for i, out := range sizes {
		name := "gconv" + string(rune('0'+i))
		s.Weights = append(s.Weights, nn.NewParam(name, tensor.GlorotUniform(rng, in, out)))
		in = out
	}
	return s
}

// Name returns the backend registry name ("gcn").
func (s *GraphConvStack) Name() string { return "gcn" }

// SetWorkspace installs the scratch workspace the stack draws per-sample
// intermediates from.
func (s *GraphConvStack) SetWorkspace(ws *nn.Workspace) { s.ws = ws }

// Params exposes the layer weights to the optimizer.
func (s *GraphConvStack) Params() []*nn.Param {
	ps := make([]*nn.Param, len(s.Weights))
	copy(ps, s.Weights)
	return ps
}

// Forward runs all graph-convolution layers for one graph and returns the
// concatenated Z^{1:h} (n × Σ c_t).
func (s *GraphConvStack) Forward(csr *graph.CSR, x *tensor.Matrix) *tensor.Matrix {
	s.csr = csr
	if h := len(s.Weights); len(s.inputs) != h {
		// Stacks built as struct literals (tests) skip the constructor;
		// size the per-layer caches on first use.
		s.inputs = make([]*tensor.Matrix, h)
		s.pre = make([]*tensor.Matrix, h)
		s.outs = make([]*tensor.Matrix, h)
		s.dOuts = make([]*tensor.Matrix, h)
	}
	z := x
	total := 0
	for t, w := range s.Weights {
		s.inputs[t] = z
		f := s.ws.Matrix(z.Rows, w.Value.Cols)
		tensor.MatMulInto(f, z, w.Value) // Z_t · W_t
		o := s.ws.Matrix(f.Rows, f.Cols)
		csr.SpMMInto(o, f) // D̄⁻¹ Ā · (Z_t W_t)
		s.pre[t] = o
		z = s.ws.Matrix(o.Rows, o.Cols)
		tensor.MapInto(z, o, relu)
		s.outs[t] = z
		total += w.Value.Cols
	}
	out := s.ws.Matrix(x.Rows, total)
	tensor.HConcatInto(out, s.outs...)
	return out
}

// Backward consumes ∂L/∂Z^{1:h} and returns ∂L/∂X, accumulating weight
// gradients. Each Z_t receives gradient both from its slice of the
// concatenated output and from layer t+1.
func (s *GraphConvStack) Backward(dconcat *tensor.Matrix) *tensor.Matrix {
	h := len(s.Weights)
	// Split the concatenated gradient into per-layer slices.
	off := 0
	for t := range s.Weights {
		w := s.Weights[t].Value.Cols
		s.dOuts[t] = s.ws.Matrix(dconcat.Rows, w)
		tensor.SliceColsInto(s.dOuts[t], dconcat, off, off+w)
		off += w
	}
	var dNext *tensor.Matrix // gradient flowing into Z_t from layer t (w.r.t. its input)
	for t := h - 1; t >= 0; t-- {
		dz := s.dOuts[t]
		if dNext != nil {
			dz.AddInPlace(dNext)
		}
		// Through ReLU: gate on pre-activation sign. dpre is a dirty
		// checkout, so both branches write.
		dpre := s.ws.Matrix(dz.Rows, dz.Cols)
		for i, g := range dz.Data {
			if s.pre[t].Data[i] > 0 {
				dpre.Data[i] = g
			} else {
				dpre.Data[i] = 0
			}
		}
		// Through P: dF = Pᵀ · dpre.
		df := s.ws.Matrix(dpre.Rows, dpre.Cols)
		s.csr.SpMMTInto(df, dpre)
		// Through the matmul: dW_t += Z_tᵀ · dF ; dZ_t = dF · W_tᵀ. The
		// weight gradient goes through a scratch product first — the
		// accumulated Grad must see one rounded product per sample, exactly
		// like the allocating MatMul-then-AddInPlace it replaces.
		gw := s.ws.Matrix(s.Weights[t].Value.Rows, s.Weights[t].Value.Cols)
		tensor.MatMulTAInto(gw, s.inputs[t], df)
		s.Weights[t].Grad.AddInPlace(gw)
		dNext = s.ws.Matrix(df.Rows, s.Weights[t].Value.Rows)
		tensor.MatMulTBInto(dNext, df, s.Weights[t].Value)
	}
	return dNext
}

func relu(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}
