package core

import (
	"math/rand"

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
	pre   []*tensor.Matrix   // pre-activation, len == layers
	outs  []*tensor.Matrix   // Z_{t+1}, len == layers
	dOuts []*tensor.Matrix   // backward scratch, len == layers
}

// NewTAGStack builds h = len(sizes) layers with K = hops propagation hops
// each, Glorot-uniform weights drawn hop-ascending per layer (a fixed rng
// draw order — the NewReplica contract).
func NewTAGStack(rng *rand.Rand, attrDim int, sizes []int, hops int) *TAGStack {
	if hops < 1 {
		hops = defaultConvHops
	}
	h := len(sizes)
	s := &TAGStack{
		Hops:  hops,
		hopZs: make([][]*tensor.Matrix, h),
		pre:   make([]*tensor.Matrix, h),
		outs:  make([]*tensor.Matrix, h),
		dOuts: make([]*tensor.Matrix, h),
	}
	in := attrDim
	for i, out := range sizes {
		layer := make([]*nn.Param, 0, hops+1)
		for j := 0; j <= hops; j++ {
			name := "tag" + string(rune('0'+i)) + "h" + string(rune('0'+j))
			layer = append(layer, nn.NewParam(name, tensor.GlorotUniform(rng, in, out)))
		}
		s.Weights = append(s.Weights, layer)
		s.hopZs[i] = make([]*tensor.Matrix, hops+1)
		in = out
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
	total := 0
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
		s.pre[t] = pre
		z = s.ws.Matrix(pre.Rows, pre.Cols)
		tensor.MapInto(z, pre, relu)
		s.outs[t] = z
		total += layer[0].Value.Cols
	}
	out := s.ws.Matrix(x.Rows, total)
	tensor.HConcatInto(out, s.outs...)
	return out
}

// Backward consumes ∂L/∂Z^{1:h} and returns ∂L/∂X, accumulating weight
// gradients. The input gradient Σ_j (Pᵀ)^j · (dpre · W_jᵀ) is evaluated by
// the Horner-style recurrence acc_j = dpre·W_jᵀ + Pᵀ·acc_{j+1}, so each
// layer's backward costs K transposed SpMMs — the mirror image of the
// forward hop chain.
func (s *TAGStack) Backward(dconcat *tensor.Matrix) *tensor.Matrix {
	h := len(s.Weights)
	off := 0
	for t := range s.Weights {
		w := s.Weights[t][0].Value.Cols
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
		layer := s.Weights[t]
		// Per-hop weight gradients: dW_{t,j} += H_jᵀ · dpre, one rounded
		// product per sample each.
		for j := 0; j <= s.Hops; j++ {
			gw := s.ws.Matrix(layer[j].Value.Rows, layer[j].Value.Cols)
			tensor.MatMulTAInto(gw, s.hopZs[t][j], dpre)
			layer[j].Grad.AddInPlace(gw)
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
