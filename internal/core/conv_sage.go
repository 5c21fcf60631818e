package core

import (
	"math/rand"

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
	pre    []*tensor.Matrix // pre-activation, len == layers
	outs   []*tensor.Matrix // Z_{t+1}, len == layers
	dOuts  []*tensor.Matrix // backward scratch, len == layers
}

// NewSAGEStack builds h = len(sizes) layers mapping attrDim → sizes[0] → …
// with Glorot-uniform weights (self then neighbor per layer, a fixed rng
// draw order — the NewReplica contract).
func NewSAGEStack(rng *rand.Rand, attrDim int, sizes []int) *SAGEStack {
	h := len(sizes)
	s := &SAGEStack{
		inputs: make([]*tensor.Matrix, h),
		aggs:   make([]*tensor.Matrix, h),
		pre:    make([]*tensor.Matrix, h),
		outs:   make([]*tensor.Matrix, h),
		dOuts:  make([]*tensor.Matrix, h),
	}
	in := attrDim
	for i, out := range sizes {
		idx := string(rune('0' + i))
		s.Self = append(s.Self, nn.NewParam("sage"+idx+"s", tensor.GlorotUniform(rng, in, out)))
		s.Nbr = append(s.Nbr, nn.NewParam("sage"+idx+"n", tensor.GlorotUniform(rng, in, out)))
		in = out
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
	total := 0
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
		s.pre[t] = pre
		z = s.ws.Matrix(pre.Rows, pre.Cols)
		tensor.MapInto(z, pre, relu)
		s.outs[t] = z
		total += ws.Value.Cols
	}
	out := s.ws.Matrix(x.Rows, total)
	tensor.HConcatInto(out, s.outs...)
	return out
}

// Backward consumes ∂L/∂Z^{1:h} and returns ∂L/∂X, accumulating weight
// gradients. Mirrors GraphConvStack.Backward's structure: each Z_t receives
// gradient from its concat slice plus layer t+1, gated through ReLU on the
// pre-activation sign.
func (s *SAGEStack) Backward(dconcat *tensor.Matrix) *tensor.Matrix {
	h := len(s.Self)
	off := 0
	for t := range s.Self {
		w := s.Self[t].Value.Cols
		s.dOuts[t] = s.ws.Matrix(dconcat.Rows, w)
		tensor.SliceColsInto(s.dOuts[t], dconcat, off, off+w)
		off += w
	}
	var dNext *tensor.Matrix
	for t := h - 1; t >= 0; t-- {
		dz := s.dOuts[t]
		if dNext != nil {
			dz.AddInPlace(dNext)
		}
		dpre := s.ws.Matrix(dz.Rows, dz.Cols)
		for i, g := range dz.Data {
			if s.pre[t].Data[i] > 0 {
				dpre.Data[i] = g
			} else {
				dpre.Data[i] = 0
			}
		}
		// Weight gradients through a scratch product each, so Grad sees one
		// rounded product per sample (the accumulation contract).
		gs := s.ws.Matrix(s.Self[t].Value.Rows, s.Self[t].Value.Cols)
		tensor.MatMulTAInto(gs, s.inputs[t], dpre) // dW_self += Z_tᵀ · dpre
		s.Self[t].Grad.AddInPlace(gs)
		gn := s.ws.Matrix(s.Nbr[t].Value.Rows, s.Nbr[t].Value.Cols)
		tensor.MatMulTAInto(gn, s.aggs[t], dpre) // dW_nbr += (P·Z_t)ᵀ · dpre
		s.Nbr[t].Grad.AddInPlace(gn)
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
