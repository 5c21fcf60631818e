package baseline

import (
	"math"
	"sort"

	"repro/internal/acfg"
	"repro/internal/dataset"
	"repro/internal/nn"
)

// WLKernelKNN is the pairwise-graph-similarity approach the paper's
// introduction argues against on execution-performance grounds: a
// Weisfeiler-Lehman subtree kernel ([29], the theory behind DGCNN's
// SortPooling colors) with a k-nearest-neighbour classifier on normalized
// kernel similarity. Classification quality can be competitive, but
// prediction cost scales with the training-set size (and kernel-matrix
// construction is quadratic), which is exactly the drawback Section I
// cites; BenchmarkWLKernelPredict documents the contrast with MAGIC's
// size-independent inference.
type WLKernelKNN struct {
	Iterations int // WL refinement rounds h
	K          int // neighbours consulted

	classes int
	refs    []wlRef
}

type wlRef struct {
	label int
	feats map[uint64]float64
	norm  float64
}

// NewWLKernelKNN returns the kernel classifier with h = 3 refinements and
// 5 neighbours.
func NewWLKernelKNN() *WLKernelKNN {
	return &WLKernelKNN{Iterations: 3, K: 5}
}

// Fit stores the WL feature maps of all training graphs (implements
// eval.Classifier).
func (w *WLKernelKNN) Fit(train *dataset.Dataset) error {
	w.classes = train.NumClasses()
	w.refs = make([]wlRef, 0, train.Len())
	for _, s := range train.Samples {
		feats := w.featureMap(s.ACFG)
		w.refs = append(w.refs, wlRef{label: s.Label, feats: feats, norm: wlNorm(feats)})
	}
	return nil
}

// Predict votes among the K most similar training graphs (implements
// eval.Classifier).
func (w *WLKernelKNN) Predict(s *dataset.Sample) []float64 {
	feats := w.featureMap(s.ACFG)
	norm := wlNorm(feats)

	type scored struct {
		sim   float64
		label int
	}
	sims := make([]scored, len(w.refs))
	for i, ref := range w.refs {
		sims[i] = scored{sim: wlDot(feats, ref.feats) / (norm*ref.norm + 1e-12), label: ref.label}
	}
	sort.Slice(sims, func(a, b int) bool { return sims[a].sim > sims[b].sim })

	k := w.K
	if k > len(sims) {
		k = len(sims)
	}
	votes := make([]float64, w.classes)
	for _, sc := range sims[:k] {
		votes[sc.label] += sc.sim * 8
	}
	return nn.Softmax(votes)
}

// featureMap computes the WL subtree-kernel feature vector: counts of
// compressed vertex colors across all refinement iterations.
func (w *WLKernelKNN) featureMap(a *acfg.ACFG) map[uint64]float64 {
	n := a.NumVertices()
	feats := make(map[uint64]float64)
	if n == 0 {
		return feats
	}
	// Initial colors: quantized Table I attribute symbols.
	colors := make([]uint64, n)
	for v := 0; v < n; v++ {
		colors[v] = uint64(blockSymbol(a, v)) | 1<<63 // disjoint from refined colors
		feats[colors[v]]++
	}
	next := make([]uint64, n)
	for it := 0; it < w.Iterations; it++ {
		for v := 0; v < n; v++ {
			succ := a.Graph.Succ(v)
			neigh := make([]uint64, len(succ))
			for i, u := range succ {
				neigh[i] = colors[u]
			}
			sort.Slice(neigh, func(i, j int) bool { return neigh[i] < neigh[j] })
			h := remix(colors[v] + uint64(it)*0x9e3779b97f4a7c15)
			for _, c := range neigh {
				h = remix(h ^ c)
			}
			next[v] = h
			feats[h]++
		}
		colors, next = next, colors
	}
	return feats
}

func wlDot(a, b map[uint64]float64) float64 {
	if len(b) < len(a) {
		a, b = b, a
	}
	dot := 0.0
	for k, v := range a {
		dot += v * b[k]
	}
	return dot
}

func wlNorm(a map[uint64]float64) float64 {
	s := 0.0
	for _, v := range a {
		s += v * v
	}
	return math.Sqrt(s)
}
