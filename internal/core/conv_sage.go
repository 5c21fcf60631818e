package core

import (
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// SAGEStack is the GraphSAGE-style mean-aggregation backend: each layer
// combines a vertex's own embedding with the normalized-neighborhood mean
// through separate weight matrices,
//
//	Z_{t+1} = relu(Z_t · W_self + (P · Z_t) · W_nbr)
//
// where P = D̄⁻¹Ā is the same propagation operator the paper's rule uses (so
// the "mean" includes the self loop, matching the augmented adjacency). The
// concatenated Z^{1:h} feeds pooling exactly like the default backend.
//
// All per-sample intermediates are workspace checkouts; see ConvBackend for
// the shared hot-path contracts.
type SAGEStack struct {
	Self []*nn.Param // W_self of shape c_t × c_{t+1}
	Nbr  []*nn.Param // W_nbr of shape c_t × c_{t+1}

	ws *nn.Workspace

	csr    *graph.CSR
	inputs []*tensor.Matrix // Z_t, len == layers
	aggs   []*tensor.Matrix // P·Z_t, len == layers
	outs   []*tensor.Matrix // Z_{t+1}, rectified in place, len == layers
	dOuts  []*tensor.Matrix // backward scratch, len == layers
}

// NewSAGEStack builds h = len(layers) layers over the given weights:
// layers[t] = {W_self, W_nbr}, each c_t × c_{t+1}.
func NewSAGEStack(layers [][]*tensor.Matrix) *SAGEStack {
	h := len(layers)
	s := &SAGEStack{
		inputs: make([]*tensor.Matrix, h),
		aggs:   make([]*tensor.Matrix, h),
		outs:   make([]*tensor.Matrix, h),
		dOuts:  make([]*tensor.Matrix, h),
	}
	for i, l := range layers {
		idx := string(rune('0' + i))
		s.Self = append(s.Self, nn.NewParam("sage"+idx+"s", l[0]))
		s.Nbr = append(s.Nbr, nn.NewParam("sage"+idx+"n", l[1]))
	}
	return s
}

// SetWorkspace installs the scratch workspace for per-sample buffers.
func (s *SAGEStack) SetWorkspace(ws *nn.Workspace) { s.ws = ws }

// Params exposes the layer weights in serialization order: per layer, self
// then neighbor.
func (s *SAGEStack) Params() []*nn.Param {
	ps := make([]*nn.Param, 0, 2*len(s.Self))
	for i := range s.Self {
		ps = append(ps, s.Self[i], s.Nbr[i])
	}
	return ps
}

// Forward runs all layers for one graph and returns the concatenated
// Z^{1:h} (n × Σ c_t).
func (s *SAGEStack) Forward(csr *graph.CSR, x *tensor.Matrix) *tensor.Matrix {
	s.csr = csr
	z := x
	for t := range s.Self {
		ws, wn := s.Self[t], s.Nbr[t]
		s.inputs[t] = z
		agg := s.ws.Matrix(z.Rows, z.Cols)
		csr.SpMMInto(agg, z) // P·Z_t (normalized neighborhood mean)
		s.aggs[t] = agg
		fs := s.ws.Matrix(z.Rows, ws.Value.Cols)
		tensor.MatMulInto(fs, z, ws.Value) // Z_t · W_self
		fn := s.ws.Matrix(z.Rows, wn.Value.Cols)
		tensor.MatMulInto(fn, agg, wn.Value) // (P·Z_t) · W_nbr
		pre := s.ws.Matrix(fs.Rows, fs.Cols)
		tensor.AddInto(pre, fs, fn)
		rectify(pre)
		s.outs[t] = pre
		z = pre
	}
	return concatCols(s.ws, s.outs)
}

// Backward consumes ∂L/∂Z^{1:h} and returns ∂L/∂X, accumulating weight
// gradients. Mirrors GraphConvStack.Backward's structure: each Z_t receives
// gradient from its concat slice plus layer t+1, gated through ReLU on the
// activation's sign (gateRelu).
func (s *SAGEStack) Backward(dconcat *tensor.Matrix) *tensor.Matrix {
	h := len(s.Self)
	splitCols(s.ws, s.dOuts, dconcat, s.outs)
	var dNext *tensor.Matrix
	for t := h - 1; t >= 0; t-- {
		dz := s.dOuts[t]
		if dNext != nil {
			dz.AddInPlace(dNext)
		}
		dpre := gateRelu(dz, s.outs[t])
		// Weight gradients through a scratch product each, so Grad sees one
		// rounded product per sample (the accumulation contract).
		gs := s.ws.Matrix(s.Self[t].Value.Rows, s.Self[t].Value.Cols)
		tensor.MatMulTAInto(gs, s.inputs[t], dpre) // dW_self += Z_tᵀ · dpre
		s.Self[t].Gradient().AddInPlace(gs)
		gn := s.ws.Matrix(s.Nbr[t].Value.Rows, s.Nbr[t].Value.Cols)
		tensor.MatMulTAInto(gn, s.aggs[t], dpre) // dW_nbr += (P·Z_t)ᵀ · dpre
		s.Nbr[t].Gradient().AddInPlace(gn)
		// Input gradient: the self path plus the aggregation path through Pᵀ.
		dself := s.ws.Matrix(dpre.Rows, s.Self[t].Value.Rows)
		tensor.MatMulTBInto(dself, dpre, s.Self[t].Value) // dpre · W_selfᵀ
		dagg := s.ws.Matrix(dpre.Rows, s.Nbr[t].Value.Rows)
		tensor.MatMulTBInto(dagg, dpre, s.Nbr[t].Value) // dpre · W_nbrᵀ
		dviaP := s.ws.Matrix(dagg.Rows, dagg.Cols)
		s.csr.SpMMTInto(dviaP, dagg) // Pᵀ · (dpre · W_nbrᵀ)
		dNext = s.ws.Matrix(dself.Rows, dself.Cols)
		tensor.AddInto(dNext, dself, dviaP)
	}
	return dNext
}
