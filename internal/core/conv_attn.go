package core

import (
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// AttnStack is the single-head dot-product attention backend (DotGat
// style): each layer projects the input once, H = Z_t · W_t, then replaces
// the fixed propagation weights with a learned, input-dependent row-softmax
// over each vertex's augmented-adjacency neighborhood N̄(i) (successors plus
// the self loop — the same sparsity pattern as P, whose stored weights are
// ignored):
//
//	s_ij = ⟨H_i, H_j⟩ / √c_out          for j ∈ N̄(i)
//	α_i· = softmax(s_i·)                 (max-subtracted, fixed edge order)
//	Z_{t+1,i} = relu(Σ_j α_ij · H_j)
//
// The concatenated Z^{1:h} feeds pooling exactly like the default backend.
// Per-edge score/coefficient buffers are flat workspace float slices indexed
// by CSR edge position, so the whole layer stays zero-alloc at steady state
// and every accumulation runs in the CSR's fixed edge order.
type AttnStack struct {
	Weights []*nn.Param // W_t of shape c_t × c_{t+1}

	ws *nn.Workspace

	csr    *graph.CSR
	inputs []*tensor.Matrix // Z_t, len == layers
	projs  []*tensor.Matrix // H = Z_t·W_t, len == layers
	alphas [][]float64      // per-edge softmax coefficients, len == layers
	outs   []*tensor.Matrix // Z_{t+1}, rectified in place, len == layers
	dOuts  []*tensor.Matrix // backward scratch, len == layers
}

// NewAttnStack builds h = len(layers) layers over the given weights:
// layers[t] = {W_t}, a c_t × c_{t+1} matrix.
func NewAttnStack(layers [][]*tensor.Matrix) *AttnStack {
	h := len(layers)
	s := &AttnStack{
		inputs: make([]*tensor.Matrix, h),
		projs:  make([]*tensor.Matrix, h),
		alphas: make([][]float64, h),
		outs:   make([]*tensor.Matrix, h),
		dOuts:  make([]*tensor.Matrix, h),
	}
	for i, l := range layers {
		s.Weights = append(s.Weights, nn.NewParam("attn"+string(rune('0'+i)), l[0]))
	}
	return s
}

// SetWorkspace installs the scratch workspace for per-sample buffers.
func (s *AttnStack) SetWorkspace(ws *nn.Workspace) { s.ws = ws }

// Params exposes the layer weights to the optimizer.
func (s *AttnStack) Params() []*nn.Param { return slices.Clone(s.Weights) }

// Forward runs all layers for one graph and returns the concatenated
// Z^{1:h} (n × Σ c_t).
func (s *AttnStack) Forward(csr *graph.CSR, x *tensor.Matrix) *tensor.Matrix {
	s.csr = csr
	n := csr.N()
	nnz := csr.NNZ()
	z := x
	for t, w := range s.Weights {
		s.inputs[t] = z
		cOut := w.Value.Cols
		hm := s.ws.Matrix(z.Rows, cOut)
		tensor.MatMulInto(hm, z, w.Value) // H = Z_t · W_t
		s.projs[t] = hm
		scale := 1 / math.Sqrt(float64(cOut))

		// Per-edge scores then row softmax, all in CSR edge order. Every CSR
		// row is non-empty (the diagonal is always stored), so the max/sum
		// initializations below are safe.
		alpha := s.ws.Floats(nnz)
		s.alphas[t] = alpha
		pre := s.ws.Matrix(n, cOut)
		pre.Zero()
		edge := 0
		for i := 0; i < n; i++ {
			cols, _ := csr.Row(i)
			base := edge
			hi := hm.Row(i)
			maxS := math.Inf(-1)
			for e, j := range cols {
				hj := hm.Row(j)
				dot := 0.0
				for c, v := range hi {
					dot += v * hj[c]
				}
				sij := dot * scale
				alpha[base+e] = sij
				if sij > maxS {
					maxS = sij
				}
			}
			sum := 0.0
			for e := range cols {
				ex := math.Exp(alpha[base+e] - maxS)
				alpha[base+e] = ex
				sum += ex
			}
			orow := pre.Row(i)
			for e, j := range cols {
				a := alpha[base+e] / sum
				alpha[base+e] = a
				hj := hm.Row(j)
				for c, v := range hj {
					orow[c] += a * v
				}
			}
			edge += len(cols)
		}
		rectify(pre)
		s.outs[t] = pre
		z = pre
	}
	return concatCols(s.ws, s.outs)
}

// Backward consumes ∂L/∂Z^{1:h} and returns ∂L/∂X, accumulating weight
// gradients. Per layer it runs the softmax-attention backward in the same
// fixed CSR edge order as the forward: dH collects the value path
// (α_ij·dpre_i into row j), then the score path through the softmax Jacobian
// ds_ij = α_ij(dα_ij − Σ_l α_il dα_il) feeds both endpoints of each edge;
// finally dW_t += Z_tᵀ·dH and dZ_t = dH·W_tᵀ.
func (s *AttnStack) Backward(dconcat *tensor.Matrix) *tensor.Matrix {
	h := len(s.Weights)
	splitCols(s.ws, s.dOuts, dconcat, s.outs)
	csr := s.csr
	n := csr.N()
	nnz := csr.NNZ()
	var dNext *tensor.Matrix
	for t := h - 1; t >= 0; t-- {
		dz := s.dOuts[t]
		if dNext != nil {
			dz.AddInPlace(dNext)
		}
		dpre := gateRelu(dz, s.outs[t])
		hm := s.projs[t]
		alpha := s.alphas[t]
		cOut := s.Weights[t].Value.Cols
		scale := 1 / math.Sqrt(float64(cOut))
		dh := s.ws.Matrix(n, cOut)
		dh.Zero()
		dalpha := s.ws.Floats(nnz)
		edge := 0
		for i := 0; i < n; i++ {
			cols, _ := csr.Row(i)
			base := edge
			drow := dpre.Row(i)
			// Value path plus dα per edge.
			for e, j := range cols {
				hj := hm.Row(j)
				djrow := dh.Row(j)
				a := alpha[base+e]
				dot := 0.0
				for c, g := range drow {
					djrow[c] += a * g
					dot += g * hj[c]
				}
				dalpha[base+e] = dot
			}
			// Softmax Jacobian: ds = α ⊙ (dα − ⟨α, dα⟩).
			rowDot := 0.0
			for e := range cols {
				rowDot += alpha[base+e] * dalpha[base+e]
			}
			hi := hm.Row(i)
			dirow := dh.Row(i)
			for e, j := range cols {
				ds := alpha[base+e] * (dalpha[base+e] - rowDot) * scale
				hj := hm.Row(j)
				djrow := dh.Row(j)
				for c := range hi {
					dirow[c] += ds * hj[c]
					djrow[c] += ds * hi[c]
				}
			}
			edge += len(cols)
		}
		// Through the projection: dW_t += Z_tᵀ·dH ; dZ_t = dH·W_tᵀ, with the
		// weight gradient going through one rounded scratch product.
		gw := s.ws.Matrix(s.Weights[t].Value.Rows, s.Weights[t].Value.Cols)
		tensor.MatMulTAInto(gw, s.inputs[t], dh)
		s.Weights[t].Gradient().AddInPlace(gw)
		dNext = s.ws.Matrix(n, s.Weights[t].Value.Rows)
		tensor.MatMulTBInto(dNext, dh, s.Weights[t].Value)
	}
	return dNext
}
