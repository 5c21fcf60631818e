package core

import (
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TAGStack is the topology-adaptive (TAGConv-style) k-hop backend: each
// layer mixes the 0..K-hop propagated inputs through per-hop weights,
//
//	Z_{t+1} = relu(Σ_{j=0..K} P^j · Z_t · W_{t,j})
//
// with P = D̄⁻¹Ā. The hop powers are computed by repeated CSR SpMM
// (one SpMMInto per hop) — never by materializing P^j. The concatenated
// Z^{1:h} feeds pooling exactly like the default backend.
//
// All per-sample intermediates are workspace checkouts; see ConvBackend for
// the shared hot-path contracts.
type TAGStack struct {
	Hops    int           // K: number of propagation hops per layer (≥ 1)
	Weights [][]*nn.Param // Weights[t][j] is W_{t,j} of shape c_t × c_{t+1}

	ws *nn.Workspace

	csr   *graph.CSR
	hopZs [][]*tensor.Matrix // hopZs[t][j] = P^j · Z_t, len == layers × (K+1)
	outs  []*tensor.Matrix   // Z_{t+1}, rectified in place, len == layers
	dOuts []*tensor.Matrix   // backward scratch, len == layers
}

// NewTAGStack builds h = len(layers) layers over the given weights:
// layers[t] = {W_{t,0}, …, W_{t,K}}, hop ascending, each c_t × c_{t+1}, so
// K = len(layers[t]) − 1 ≥ 1.
func NewTAGStack(layers [][]*tensor.Matrix) *TAGStack {
	h := len(layers)
	s := &TAGStack{
		hopZs: make([][]*tensor.Matrix, h),
		outs:  make([]*tensor.Matrix, h),
		dOuts: make([]*tensor.Matrix, h),
	}
	for i, l := range layers {
		s.Hops = len(l) - 1
		layer := make([]*nn.Param, len(l))
		for j, w := range l {
			layer[j] = nn.NewParam("tag"+string(rune('0'+i))+"h"+string(rune('0'+j)), w)
		}
		s.Weights = append(s.Weights, layer)
		s.hopZs[i] = make([]*tensor.Matrix, len(l))
	}
	return s
}

// SetWorkspace installs the scratch workspace for per-sample buffers.
func (s *TAGStack) SetWorkspace(ws *nn.Workspace) { s.ws = ws }

// Params exposes the weights in serialization order: layer-major, hop
// ascending.
func (s *TAGStack) Params() []*nn.Param {
	ps := make([]*nn.Param, 0, len(s.Weights)*(s.Hops+1))
	for _, layer := range s.Weights {
		ps = append(ps, layer...)
	}
	return ps
}

// Forward runs all layers for one graph and returns the concatenated
// Z^{1:h} (n × Σ c_t).
func (s *TAGStack) Forward(csr *graph.CSR, x *tensor.Matrix) *tensor.Matrix {
	s.csr = csr
	z := x
	for t, layer := range s.Weights {
		// Hop powers: H_0 = Z_t, H_j = P·H_{j-1}.
		s.hopZs[t][0] = z
		for j := 1; j <= s.Hops; j++ {
			hj := s.ws.Matrix(z.Rows, z.Cols)
			csr.SpMMInto(hj, s.hopZs[t][j-1])
			s.hopZs[t][j] = hj
		}
		// pre = Σ_j H_j · W_{t,j}, accumulated hop-ascending with one
		// rounded product per hop (fixed order — the determinism contract).
		pre := s.ws.Matrix(z.Rows, layer[0].Value.Cols)
		tensor.MatMulInto(pre, s.hopZs[t][0], layer[0].Value)
		for j := 1; j <= s.Hops; j++ {
			fj := s.ws.Matrix(pre.Rows, pre.Cols)
			tensor.MatMulInto(fj, s.hopZs[t][j], layer[j].Value)
			pre.AddInPlace(fj)
		}
		rectify(pre)
		s.outs[t] = pre
		z = pre
	}
	return concatCols(s.ws, s.outs)
}

// Backward consumes ∂L/∂Z^{1:h} and returns ∂L/∂X, accumulating weight
// gradients. The input gradient Σ_j (Pᵀ)^j · (dpre · W_jᵀ) is evaluated by
// the Horner-style recurrence acc_j = dpre·W_jᵀ + Pᵀ·acc_{j+1}, so each
// layer's backward costs K transposed SpMMs — the mirror image of the
// forward hop chain.
func (s *TAGStack) Backward(dconcat *tensor.Matrix) *tensor.Matrix {
	h := len(s.Weights)
	splitCols(s.ws, s.dOuts, dconcat, s.outs)
	var dNext *tensor.Matrix
	for t := h - 1; t >= 0; t-- {
		dz := s.dOuts[t]
		if dNext != nil {
			dz.AddInPlace(dNext)
		}
		dpre := gateRelu(dz, s.outs[t])
		layer := s.Weights[t]
		// Per-hop weight gradients: dW_{t,j} += H_jᵀ · dpre, one rounded
		// product per sample each.
		for j := 0; j <= s.Hops; j++ {
			gw := s.ws.Matrix(layer[j].Value.Rows, layer[j].Value.Cols)
			tensor.MatMulTAInto(gw, s.hopZs[t][j], dpre)
			layer[j].Gradient().AddInPlace(gw)
		}
		// Horner chain for the input gradient.
		acc := s.ws.Matrix(dpre.Rows, layer[s.Hops].Value.Rows)
		tensor.MatMulTBInto(acc, dpre, layer[s.Hops].Value)
		for j := s.Hops - 1; j >= 0; j-- {
			viaP := s.ws.Matrix(acc.Rows, acc.Cols)
			s.csr.SpMMTInto(viaP, acc)
			direct := s.ws.Matrix(dpre.Rows, layer[j].Value.Rows)
			tensor.MatMulTBInto(direct, dpre, layer[j].Value)
			acc = s.ws.Matrix(direct.Rows, direct.Cols)
			tensor.AddInto(acc, direct, viaP)
		}
		dNext = acc
	}
	return dNext
}
