package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/acfg"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Frozen32 is an immutable float32 snapshot of a trained model, the fast
// inference tier behind magic-server's -float32 flag. Freezing copies every
// weight once; the snapshot keeps no per-sample caches, so one Frozen32
// serves any number of goroutines without replicas. Its predictions are
// approximate — float32 rounding drifts the probabilities by ≈1e-5 relative
// against the bit-deterministic float64 path (TestFrozen32Parity pins the
// tolerance and that the argmax class agrees on the demo corpus). Anything
// that must be exact — training, golden checksums, the default serving
// path — stays on the float64 Model.
type Frozen32 struct {
	cfg  Config
	k    int // resolved sort-pooling size (0 in adaptive mode)
	mean []float32
	std  []float32 // nil when no scaler is installed
	conv frozenConv32
	head *nn.Sequential32
}

// frozenConv32 is the float32 forward-only form of a ConvBackend: it maps
// one graph's CSR operator plus float32 attributes to the concatenated
// Z^{1:h}. Implementations are immutable after construction and safe for
// concurrent use; like the rest of the frozen tier they allocate per call
// and carry no accumulation-order contract.
type frozenConv32 interface {
	forward32(csr *graph.CSR, x *tensor.Matrix32) *tensor.Matrix32
}

// Freeze32 snapshots the model into the float32 inference tier. The model's
// weights are copied, so later training steps do not disturb the snapshot.
func (m *Model) Freeze32() (*Frozen32, error) {
	head, err := m.head.Freeze32()
	if err != nil {
		return nil, fmt.Errorf("core: freeze32: %w", err)
	}
	f := &Frozen32{cfg: m.Config, k: m.K, head: head, conv: m.conv.freeze32()}
	if m.scaler != nil {
		f.mean = make([]float32, len(m.scaler.Mean))
		f.std = make([]float32, len(m.scaler.Std))
		for i, mu := range m.scaler.Mean {
			f.mean[i] = float32(mu)
			f.std[i] = float32(m.scaler.Std[i])
		}
	}
	return f, nil
}

// logits32 runs the forward pass for one sample and returns the class
// logits (a fresh slice).
func (f *Frozen32) logits32(a *acfg.ACFG) []float32 {
	var x *tensor.Matrix32
	var csr *graph.CSR
	if a.Attrs.Rows == 0 {
		// Degenerate empty graph: classify a single zero vertex, skipping
		// the scaler exactly like the float64 path.
		x = tensor.NewMatrix32(1, f.cfg.AttrDim)
		csr = emptyCSR
	} else {
		x = tensor.NewMatrix32(a.Attrs.Rows, a.Attrs.Cols)
		if f.std != nil {
			for i, v := range a.Attrs.Data {
				c := i % a.Attrs.Cols
				x.Data[i] = (float32(v) - f.mean[c]) / f.std[c]
			}
		} else {
			for i, v := range a.Attrs.Data {
				x.Data[i] = float32(v)
			}
		}
		csr = graph.NewCSR(a.Graph)
	}

	cat := f.conv.forward32(csr, x)

	var vol *nn.Volume32
	if f.cfg.Pooling == SortPooling {
		zsp := sortPool32(cat, f.k)
		if f.cfg.Head == Conv1DHead {
			vol = &nn.Volume32{C: 1, H: 1, W: zsp.Rows * zsp.Cols, Data: zsp.Data}
		} else {
			vol = &nn.Volume32{C: 1, H: zsp.Rows, W: zsp.Cols, Data: zsp.Data}
		}
	} else {
		vol = &nn.Volume32{C: 1, H: cat.Rows, W: cat.Cols, Data: cat.Data}
	}
	return f.head.Forward32(vol).Data
}

// sortPool32 is the forward-only SortPooling of the frozen tier: rows are
// ordered by the channels-right-to-left descending comparison (row index as
// the final tiebreak, making the order strict and sort.Slice deterministic)
// and the sorted matrix is truncated or zero-padded to k rows.
func sortPool32(z *tensor.Matrix32, k int) *tensor.Matrix32 {
	n, d := z.Rows, z.Cols
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, rb := z.Row(idx[a]), z.Row(idx[b])
		for c := d - 1; c >= 0; c-- {
			//lint:ignore floatcmp the comparator must order on exact values; a tolerance would make sort order input-dependent
			if ra[c] != rb[c] {
				return ra[c] > rb[c]
			}
		}
		return idx[a] < idx[b]
	})
	out := tensor.NewMatrix32(k, d)
	for i := 0; i < k && i < n; i++ {
		copy(out.Row(i), z.Row(idx[i]))
	}
	return out
}

// Predict returns the class-probability vector for one ACFG. Safe for
// concurrent use.
func (f *Frozen32) Predict(a *acfg.ACFG) []float64 {
	logits := f.logits32(a)
	l64 := make([]float64, len(logits))
	for i, v := range logits {
		l64[i] = float64(v)
	}
	return nn.Softmax(l64)
}

// PredictBatch classifies a batch across workers goroutines. Results are
// index-aligned with as. The error return mirrors Model.PredictBatch's
// signature so the serving batcher can swap between tiers; the frozen path
// itself cannot fail.
func (f *Frozen32) PredictBatch(as []*acfg.ACFG, workers int) ([][]float64, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(as) {
		workers = len(as)
	}
	out := make([][]float64, len(as))
	if len(as) == 0 {
		return out, nil
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(as) {
					return
				}
				out[i] = f.Predict(as[i])
			}
		}()
	}
	wg.Wait()
	return out, nil
}

// freezeWeights32 copies a slice of float64 weight params into immutable
// float32 matrices.
func freezeWeights32(ps []*nn.Param) []*tensor.Matrix32 {
	out := make([]*tensor.Matrix32, len(ps))
	for i, p := range ps {
		out[i] = tensor.NewMatrix32From(p.Value)
	}
	return out
}

// relu32InPlace clamps negatives to zero.
func relu32InPlace(m *tensor.Matrix32) {
	for i, v := range m.Data {
		if v < 0 {
			m.Data[i] = 0
		}
	}
}

// hconcat32 concatenates the per-layer outputs into Z^{1:h}.
func hconcat32(rows int, outs []*tensor.Matrix32) *tensor.Matrix32 {
	total := 0
	for _, o := range outs {
		total += o.Cols
	}
	cat := tensor.NewMatrix32(rows, total)
	off := 0
	for _, o := range outs {
		for i := 0; i < o.Rows; i++ {
			copy(cat.Row(i)[off:off+o.Cols], o.Row(i))
		}
		off += o.Cols
	}
	return cat
}

// gcnConv32 is the frozen default (paper-rule) backend:
// Z_{t+1} = relu(P·Z_t·W_t).
type gcnConv32 struct {
	w []*tensor.Matrix32
}

func (s *GraphConvStack) freeze32() frozenConv32 {
	return &gcnConv32{w: freezeWeights32(s.Params())}
}

func (g *gcnConv32) forward32(csr *graph.CSR, x *tensor.Matrix32) *tensor.Matrix32 {
	z := x
	outs := make([]*tensor.Matrix32, len(g.w))
	for t, w := range g.w {
		fm := tensor.NewMatrix32(z.Rows, w.Cols)
		tensor.MatMul32Into(fm, z, w)
		o := tensor.NewMatrix32(fm.Rows, fm.Cols)
		csr.SpMM32Into(o, fm)
		relu32InPlace(o)
		outs[t] = o
		z = o
	}
	return hconcat32(x.Rows, outs)
}

// sageConv32 is the frozen SAGE-mean backend:
// Z_{t+1} = relu(Z_t·W_self + (P·Z_t)·W_nbr).
type sageConv32 struct {
	self []*tensor.Matrix32
	nbr  []*tensor.Matrix32
}

func (s *SAGEStack) freeze32() frozenConv32 {
	return &sageConv32{self: freezeWeights32(s.Self), nbr: freezeWeights32(s.Nbr)}
}

func (g *sageConv32) forward32(csr *graph.CSR, x *tensor.Matrix32) *tensor.Matrix32 {
	z := x
	outs := make([]*tensor.Matrix32, len(g.self))
	for t := range g.self {
		agg := tensor.NewMatrix32(z.Rows, z.Cols)
		csr.SpMM32Into(agg, z)
		o := tensor.NewMatrix32(z.Rows, g.self[t].Cols)
		tensor.MatMul32Into(o, z, g.self[t])
		fn := tensor.NewMatrix32(z.Rows, g.nbr[t].Cols)
		tensor.MatMul32Into(fn, agg, g.nbr[t])
		for i, v := range fn.Data {
			o.Data[i] += v
		}
		relu32InPlace(o)
		outs[t] = o
		z = o
	}
	return hconcat32(x.Rows, outs)
}

// tagConv32 is the frozen TAG-k backend:
// Z_{t+1} = relu(Σ_j P^j·Z_t·W_{t,j}).
type tagConv32 struct {
	hops int
	w    [][]*tensor.Matrix32
}

func (s *TAGStack) freeze32() frozenConv32 {
	w := make([][]*tensor.Matrix32, len(s.Weights))
	for t, layer := range s.Weights {
		w[t] = freezeWeights32(layer)
	}
	return &tagConv32{hops: s.Hops, w: w}
}

func (g *tagConv32) forward32(csr *graph.CSR, x *tensor.Matrix32) *tensor.Matrix32 {
	z := x
	outs := make([]*tensor.Matrix32, len(g.w))
	for t, layer := range g.w {
		pre := tensor.NewMatrix32(z.Rows, layer[0].Cols)
		tensor.MatMul32Into(pre, z, layer[0])
		hj := z
		for j := 1; j <= g.hops; j++ {
			next := tensor.NewMatrix32(hj.Rows, hj.Cols)
			csr.SpMM32Into(next, hj)
			hj = next
			fj := tensor.NewMatrix32(pre.Rows, pre.Cols)
			tensor.MatMul32Into(fj, hj, layer[j])
			for i, v := range fj.Data {
				pre.Data[i] += v
			}
		}
		relu32InPlace(pre)
		outs[t] = pre
		z = pre
	}
	return hconcat32(x.Rows, outs)
}

// attnConv32 is the frozen single-head dot-product attention backend.
type attnConv32 struct {
	w []*tensor.Matrix32
}

func (s *AttnStack) freeze32() frozenConv32 {
	return &attnConv32{w: freezeWeights32(s.Weights)}
}

func (g *attnConv32) forward32(csr *graph.CSR, x *tensor.Matrix32) *tensor.Matrix32 {
	n := csr.N()
	z := x
	outs := make([]*tensor.Matrix32, len(g.w))
	for t, w := range g.w {
		hm := tensor.NewMatrix32(z.Rows, w.Cols)
		tensor.MatMul32Into(hm, z, w)
		scale := float32(1 / math.Sqrt(float64(w.Cols)))
		pre := tensor.NewMatrix32(n, w.Cols)
		scores := make([]float32, 0, 16)
		for i := 0; i < n; i++ {
			cols, _ := csr.Row(i)
			scores = scores[:0]
			hi := hm.Row(i)
			maxS := float32(math.Inf(-1))
			for _, j := range cols {
				hj := hm.Row(j)
				dot := float32(0)
				for c, v := range hi {
					dot += v * hj[c]
				}
				sij := dot * scale
				scores = append(scores, sij)
				if sij > maxS {
					maxS = sij
				}
			}
			sum := float32(0)
			for e := range scores {
				ex := float32(math.Exp(float64(scores[e] - maxS)))
				scores[e] = ex
				sum += ex
			}
			orow := pre.Row(i)
			for e, j := range cols {
				a := scores[e] / sum
				hj := hm.Row(j)
				for c, v := range hj {
					orow[c] += a * v
				}
			}
		}
		relu32InPlace(pre)
		outs[t] = pre
		z = pre
	}
	return hconcat32(x.Rows, outs)
}

// weightedVertices32 is the frozen WeightedVertices head layer.
type weightedVertices32 struct {
	k int
	w []float32
}

// Freeze32 snapshots the vertex weights into a forward-only float32 copy.
func (l *WeightedVertices) Freeze32() nn.Layer32 {
	w := make([]float32, l.K)
	for i, v := range l.W.Value.Data {
		w[i] = float32(v)
	}
	return &weightedVertices32{k: l.K, w: w}
}

func (l *weightedVertices32) Forward32(in *nn.Volume32) *nn.Volume32 {
	if in.C != 1 || in.H != l.k {
		panic("core: weightedVertices32 expects a 1×k×D input")
	}
	d := in.W
	out := nn.NewVolume32(1, 1, d)
	for i := 0; i < l.k; i++ {
		wi := l.w[i]
		row := in.Data[i*d : (i+1)*d]
		for c, v := range row {
			out.Data[c] += wi * v
		}
	}
	for c, v := range out.Data {
		if v < 0 {
			out.Data[c] = 0
		}
	}
	return out
}

var _ nn.Freezable32 = (*WeightedVertices)(nil)
