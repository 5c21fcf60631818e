package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Straight-loop oracles for every conv backend. Each oracle recomputes the
// backend's forward pass from first principles — dense augmented-adjacency
// walks instead of CSR, the committed naive matmul oracles instead of the
// blocked kernels — while preserving the exact accumulation orders the fast
// paths promise (ascending columns, hop-ascending sums, fixed-edge-order
// softmax). Agreement is therefore required bit for bit, and any divergence
// caught by the conformance sweep or the FuzzConv* targets is a real
// numerics change, not rounding noise.

// oracleSpMM computes P·x from the dense augmented adjacency with the same
// term order as graph.CSR.SpMMInto: per destination cell, ascending j with
// zero entries skipped and each weight produced by the division Āᵢⱼ/D̄ᵢᵢ.
func oracleSpMM(g *graph.Directed, x *tensor.Matrix) *tensor.Matrix {
	abar := g.AugmentedAdjacency()
	deg := g.AugmentedDegrees()
	out := tensor.New(g.N(), x.Cols)
	for i := 0; i < g.N(); i++ {
		orow := out.Row(i)
		for j := 0; j < g.N(); j++ {
			av := abar.At(i, j)
			if av == 0 {
				continue
			}
			w := av / deg[i]
			for t, v := range x.Row(j) {
				orow[t] += w * v
			}
		}
	}
	return out
}

// oracleMatMul is a·b through the committed straight-loop oracle.
func oracleMatMul(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Rows, b.Cols)
	tensor.MatMulNaiveInto(out, a, b)
	return out
}

// oracleRelu maps relu elementwise into a fresh matrix.
func oracleRelu(m *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(m.Rows, m.Cols)
	for i, v := range m.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

// TestRectifyMatchesRelu holds the branch-free rectifier to oracleRelu's
// branch by Float64bits at every boundary of its integer test: both zeros,
// the smallest and largest subnormals and normals of each sign, both
// infinities and NaNs of either sign with quiet, signalling and all-ones
// payloads — the NaNs that lie just above +Inf's bits and at the top of
// the unsigned range.
func TestRectifyMatchesRelu(t *testing.T) {
	var vals []float64
	for _, b := range []uint64{
		0, 1, 1<<52 - 1, 1 << 52, 0x3ff0000000000000, 0x7fefffffffffffff,
		0x7ff0000000000000, 0x7ff0000000000001, 0x7ff8000000000000, 0x7fffffffffffffff,
	} {
		vals = append(vals, math.Float64frombits(b), math.Float64frombits(b|1<<63))
	}
	m := tensor.New(1, len(vals))
	copy(m.Data, vals)
	want := oracleRelu(m)
	rectify(m)
	for i, v := range vals {
		if g, w := math.Float64bits(m.Data[i]), math.Float64bits(want.Data[i]); g != w {
			t.Errorf("rectify(%#x) = %#x, want %#x", math.Float64bits(v), g, w)
		}
	}
}

// oracleConcat builds Z^{1:h} row by row.
func oracleConcat(rows int, outs []*tensor.Matrix) *tensor.Matrix {
	total := 0
	for _, o := range outs {
		total += o.Cols
	}
	cat := tensor.New(rows, total)
	off := 0
	for _, o := range outs {
		for i := 0; i < o.Rows; i++ {
			copy(cat.Row(i)[off:off+o.Cols], o.Row(i))
		}
		off += o.Cols
	}
	return cat
}

// oracleConvForward recomputes b.Forward(graph.NewCSR(g), x) with straight loops,
// dispatching on the concrete backend type to reach its weights.
func oracleConvForward(t *testing.T, b ConvBackend, g *graph.Directed, x *tensor.Matrix) *tensor.Matrix {
	t.Helper()
	switch s := b.(type) {
	case *GraphConvStack:
		z := x
		var outs []*tensor.Matrix
		for _, w := range s.Weights {
			z = oracleRelu(oracleSpMM(g, oracleMatMul(z, w.Value)))
			outs = append(outs, z)
		}
		return oracleConcat(x.Rows, outs)
	case *SAGEStack:
		z := x
		var outs []*tensor.Matrix
		for li := range s.Self {
			agg := oracleSpMM(g, z)
			fs := oracleMatMul(z, s.Self[li].Value)
			fn := oracleMatMul(agg, s.Nbr[li].Value)
			pre := tensor.New(fs.Rows, fs.Cols)
			for i := range pre.Data {
				pre.Data[i] = fs.Data[i] + fn.Data[i]
			}
			z = oracleRelu(pre)
			outs = append(outs, z)
		}
		return oracleConcat(x.Rows, outs)
	case *TAGStack:
		z := x
		var outs []*tensor.Matrix
		for _, layer := range s.Weights {
			pre := oracleMatMul(z, layer[0].Value)
			hj := z
			for j := 1; j <= s.Hops; j++ {
				hj = oracleSpMM(g, hj)
				fj := oracleMatMul(hj, layer[j].Value)
				for i := range pre.Data {
					pre.Data[i] += fj.Data[i]
				}
			}
			z = oracleRelu(pre)
			outs = append(outs, z)
		}
		return oracleConcat(x.Rows, outs)
	case *AttnStack:
		// Recompute the attention layers over the dense augmented adjacency:
		// per row, neighbors are the nonzero Ā columns in ascending order
		// (exactly the CSR edge order), scores use the same ⟨H_i,H_j⟩/√c
		// products, and the max-subtracted softmax plus the weighted value
		// sum run in the same fixed order as the fast path.
		abar := g.AugmentedAdjacency()
		n := g.N()
		z := x
		var outs []*tensor.Matrix
		for _, wp := range s.Weights {
			w := wp.Value
			hm := oracleMatMul(z, w)
			scale := 1 / math.Sqrt(float64(w.Cols))
			pre := tensor.New(n, w.Cols)
			for i := 0; i < n; i++ {
				var nbrs []int
				for j := 0; j < n; j++ {
					if abar.At(i, j) != 0 {
						nbrs = append(nbrs, j)
					}
				}
				hi := hm.Row(i)
				scores := make([]float64, len(nbrs))
				maxS := math.Inf(-1)
				for e, j := range nbrs {
					hj := hm.Row(j)
					dot := 0.0
					for c, v := range hi {
						dot += v * hj[c]
					}
					scores[e] = dot * scale
					if scores[e] > maxS {
						maxS = scores[e]
					}
				}
				sum := 0.0
				for e := range scores {
					scores[e] = math.Exp(scores[e] - maxS)
					sum += scores[e]
				}
				orow := pre.Row(i)
				for e, j := range nbrs {
					a := scores[e] / sum
					for c, v := range hm.Row(j) {
						orow[c] += a * v
					}
				}
			}
			z = oracleRelu(pre)
			outs = append(outs, z)
		}
		return oracleConcat(x.Rows, outs)
	default:
		t.Fatalf("no oracle for conv backend %T", b)
		return nil
	}
}
