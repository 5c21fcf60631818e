package core

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/acfg"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Weights is one DGCNN weight set: the configuration, the resolved
// sort-pooling size, the attribute scaler and every parameter value. It is
// what is trained, saved, cloned and served. The trainer owns the one
// mutable copy; once published — registered for serving, or shared between
// goroutines — a Weights is immutable, and any number of replicas read it
// at once.
type Weights struct {
	Config Config
	K      int // resolved sort-pooling size (0 in adaptive mode)

	// Version is an opaque deployment identifier stamped by the serving
	// tier when the weights are registered for traffic (see
	// internal/service's model registry). It travels with checkpoints so a
	// restarted server resumes serving under the same version, and it has
	// no influence on the numerics — two weight sets with different
	// versions and equal Fingerprint() produce bit-identical predictions.
	Version string

	scaler *Scaler
	values []*tensor.Matrix // every parameter, in layer order
}

// Model is one goroutine's replica of a Weights: the end-to-end DGCNN
// malware classifier's layers with their forward caches, the scratch arena,
// the propagation operator, private gradient buffers and dropout state,
// every parameter value aliasing the embedded Weights. Construction wires
// the variant selected by the Config:
//
//   - SortPooling + Conv1DHead: graph conv → sort pool (k rows) → Conv1D
//     (kernel = stride = feature width, i.e. per-vertex filters) → max pool
//     → Conv1D → dense classifier (the original DGCNN remaining layer).
//   - SortPooling + WeightedVerticesHead: graph conv → sort pool →
//     WeightedVertices graph embedding (Eq. 3) → dense classifier.
//   - AdaptivePooling: graph conv → Conv2D + AdaptiveMaxPool to a fixed
//     grid (fused, nn.ConvAMP) → VGG-style Conv2D stack → dense classifier
//     (Section III-C).
//
// A Model is not safe for concurrent use: Forward caches per-sample state
// inside its layers for the corresponding Backward. Each goroutine that
// runs a weight set takes its own replica from Weights.NewReplica;
// ParallelBatch holds one per worker.
type Model struct {
	*Weights

	conv     ConvBackend
	sort     *SortPool
	head     *nn.Sequential
	params   []*nn.Param // Value aliases Weights.values; Grad is private
	dropouts []*nn.Dropout

	// ws is the replica's scratch arena. Every per-sample intermediate of
	// the forward and backward passes is checked out of it, and it is Reset
	// at the top of each forward — so once it has seen its largest graph, a
	// TrainStep on any graph performs zero heap allocations.
	ws *nn.Workspace
	// csr is the replica's propagation operator D̄⁻¹Ā, per-sample scratch
	// like ws: every forward Rebuilds it in place from the sample's graph,
	// and it stays valid for the matching Backward. The rebuild is O(edges)
	// against a forward pass of O(vertices × Σc_t × head), so nothing caches
	// operators across samples.
	csr *graph.CSR
	// probs/dlogits are the persistent loss scratch for TrainStep.
	probs   []float64
	dlogits []float64
	// headIn and dz are headers, not buffers: headIn shows the head the
	// conv stack's (or sort pool's) output matrix as a Volume, dz shows the
	// conv stack (or sort pool) the head's input gradient as a Matrix. Both
	// point at workspace memory of the current sample, and no layer writes
	// its input or its upstream gradient, so neither needs a copy.
	headIn nn.Volume
	dz     tensor.Matrix
}

// emptyCSR is the shared single-vertex propagation operator used for
// degenerate empty graphs. It is never Rebuilt, so one read-only instance
// serves every replica.
var emptyCSR = graph.NewCSR(graph.NewDirected(1))

// NewModel initializes a fresh weight set from cfg.Seed and returns a
// replica bound to it. trainSizes supplies the training graphs' vertex
// counts used to resolve k for sort pooling (may be nil in adaptive mode or
// when cfg.K is set explicitly).
func NewModel(cfg Config, trainSizes []int) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &Weights{Config: cfg}
	if cfg.Pooling == SortPooling {
		w.K = cfg.ResolveK(trainSizes)
	}
	m := w.build()
	for _, p := range m.params {
		w.values = append(w.values, p.Value)
	}
	return m, nil
}

// NewReplica returns a new replica bound to w: its parameter values alias
// w's tensors, while its gradient buffers, forward caches and scratch are
// its own. Replicas are how goroutines run one weight set concurrently even
// though a single Model is not safe for it; w may only be mutated
// (optimizer steps, best-epoch restore) while none of them is mid-forward.
func (w *Weights) NewReplica() *Model {
	m := w.build()
	for i, p := range m.params {
		p.Value = w.values[i]
	}
	return m
}

// build constructs w's architecture with every parameter freshly drawn from
// Config.Seed, in a fixed per-layer order, so every build has the same
// shapes and NewModel's draw is the initial weight set.
func (w *Weights) build() *Model {
	cfg := w.Config
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Weights: w}
	m.conv = newConvBackend(rng, &cfg)
	d := cfg.TotalConvWidth()

	switch cfg.Pooling {
	case SortPooling:
		m.sort = NewSortPool(w.K)
		switch cfg.Head {
		case Conv1DHead:
			m.head = buildConv1DHead(rng, cfg, w.K, d)
		case WeightedVerticesHead:
			m.head = buildWeightedVerticesHead(rng, cfg, w.K, d)
		}
	case AdaptivePooling:
		m.head = buildAMPHead(rng, cfg, d)
	}

	m.params = append(m.params, m.conv.Params()...)
	m.params = append(m.params, m.head.Params()...)
	for _, l := range m.head.Layers {
		if d, ok := l.(*nn.Dropout); ok {
			m.dropouts = append(m.dropouts, d)
		}
	}

	m.ws = nn.NewWorkspace()
	m.csr = &graph.CSR{}
	m.conv.SetWorkspace(m.ws)
	if m.sort != nil {
		m.sort.SetWorkspace(m.ws)
	}
	m.head.SetWorkspace(m.ws)
	m.probs = make([]float64, cfg.Classes)
	m.dlogits = make([]float64, cfg.Classes)
	return m
}

// Clone returns a deep copy of w with the same Version, which the caller
// may train without touching w. The scaler is shared: nothing writes a
// fitted scaler (a refit installs a new one).
func (w *Weights) Clone() *Weights {
	c := *w
	c.Config.ConvSizes = slices.Clone(w.Config.ConvSizes)
	c.values = make([]*tensor.Matrix, len(w.values))
	for i, v := range w.values {
		c.values[i] = v.Clone()
	}
	return &c
}

// seedSampleNoise deterministically re-points every stochastic layer
// (dropout) at the mask stream for one specific training sample. TrainStep
// calls it before each training forward pass with a seed derived from
// (config seed, epoch, sample index), making masks a pure function of the
// sample — independent of batch order, worker count, or scheduling.
func (m *Model) seedSampleNoise(seed int64) {
	for i, d := range m.dropouts {
		// Offset per layer so stacked dropout layers draw distinct streams.
		d.Reseed(seed + int64(i)*0x9E3779B9)
	}
}

// buildConv1DHead realizes the original DGCNN remaining layer: the sort-pool
// output (k×d) is read as a length k·d signal; the first Conv1D has kernel
// and stride d so each filter aggregates one vertex's descriptor, then max
// pooling halves the vertex axis and a second Conv1D mixes neighbouring
// vertex embeddings before the dense classifier.
func buildConv1DHead(rng *rand.Rand, cfg Config, k, d int) *nn.Sequential {
	c1, c2 := cfg.Conv1DChannels[0], cfg.Conv1DChannels[1]
	conv1 := nn.NewConv1D(rng, 1, c1, d, d) // 1×1×(k·d) → c1×1×k
	w := conv1.OutWidth(k * d)              // == k
	pool := nn.NewMaxPool2D(1, 2, 2)
	_, pw := pool.OutDims(1, w)
	kernel2 := cfg.Conv1DKernel
	if kernel2 > pw {
		kernel2 = pw // degenerate tiny-k configs: shrink the kernel
	}
	conv2 := nn.NewConv1D(rng, c1, c2, kernel2, 1)
	flatW := c2 * conv2.OutWidth(pw)
	return nn.NewSequential(
		conv1,
		nn.NewReLU(),
		pool,
		conv2,
		nn.NewReLU(),
		nn.NewLinear(rng, flatW, cfg.HiddenUnits),
		nn.NewReLU(),
		nn.NewDropout(rng, cfg.DropoutRate),
		nn.NewLinear(rng, cfg.HiddenUnits, cfg.Classes),
	)
}

// buildWeightedVerticesHead realizes the paper's Eq. 3 head.
func buildWeightedVerticesHead(rng *rand.Rand, cfg Config, k, d int) *nn.Sequential {
	return nn.NewSequential(
		NewWeightedVertices(rng, k),
		nn.NewLinear(rng, d, cfg.HiddenUnits),
		nn.NewReLU(),
		nn.NewDropout(rng, cfg.DropoutRate),
		nn.NewLinear(rng, cfg.HiddenUnits, cfg.Classes),
	)
}

// buildAMPHead realizes Section III-C: Conv2D over the raw n×d feature map,
// adaptive max pooling to a fixed grid, then a small VGG-style stack. The
// first Conv2D → ReLU → AdaptiveMaxPool2D is the one fused nn.ConvAMP layer,
// the only part of the head whose cost grows with n.
func buildAMPHead(rng *rand.Rand, cfg Config, d int) *nn.Sequential {
	c := cfg.Conv2DChannels
	gh, gw := cfg.AMPGrid()
	post := nn.NewMaxPool2D(2, 2, 2)
	ph, pw := post.OutDims(gh, gw)
	flat := 2 * c * ph * pw
	_ = d // the head is width-agnostic: AMP unifies the grid
	return nn.NewSequential(
		nn.NewConvAMP(rng, c, gh, gw),
		nn.NewConv2D(rng, c, 2*c, 3, 3, 1, 1),
		nn.NewReLU(),
		post,
		nn.NewLinear(rng, flat, cfg.HiddenUnits),
		nn.NewReLU(),
		nn.NewDropout(rng, cfg.DropoutRate),
		nn.NewLinear(rng, cfg.HiddenUnits, cfg.Classes),
	)
}

// Forward computes class logits for one ACFG. train enables dropout. It
// returns a fresh slice the caller owns; the per-sample hot path (TrainStep,
// the batch engine) reads forwardLogits' workspace slice instead.
func (m *Model) Forward(a *acfg.ACFG, train bool) []float64 {
	out := m.forwardLogits(a, train)
	logits := make([]float64, len(out))
	copy(logits, out)
	return logits
}

// forwardLogits is the allocation-free forward pass. The returned slice is
// workspace memory owned by the replica: it is valid until the next forward
// pass and must not be retained. Resetting the workspace here — at the top
// of the forward, never after the backward — keeps the public
// Forward-then-Backward sequence valid: all layer caches live until the next
// sample starts.
func (m *Model) forwardLogits(a *acfg.ACFG, train bool) []float64 {
	m.ws.Reset()
	x := a.Attrs
	csr := m.csr
	if x.Rows == 0 {
		// Degenerate empty graph: classify a single zero vertex. (The
		// scaler is skipped exactly as before: the substitute vertex stays
		// all-zero.)
		x = m.ws.Matrix(1, m.Config.AttrDim)
		x.Zero()
		csr = emptyCSR
	} else {
		csr.Rebuild(a.Graph)
		if m.scaler != nil {
			sx := m.ws.Matrix(x.Rows, x.Cols)
			m.scaler.TransformInto(sx, x)
			x = sx
		}
	}
	z := m.conv.Forward(csr, x)
	if m.sort != nil {
		z = m.sort.Forward(z)
	}
	m.headIn = nn.Volume{C: 1, H: z.Rows, W: z.Cols, Data: z.Data}
	if m.Config.Head == Conv1DHead && m.sort != nil {
		m.headIn.H, m.headIn.W = 1, z.Rows*z.Cols
	}
	out := m.head.Forward(&m.headIn, train)
	return out.Data
}

// Backward propagates ∂L/∂logits through the whole network, accumulating
// parameter gradients. Must follow a Forward call on the same sample.
func (m *Model) Backward(dlogits []float64) {
	dvol := m.ws.Volume(1, 1, len(dlogits))
	copy(dvol.Data, dlogits)
	din := m.head.Backward(dvol)

	dz := &m.dz
	if m.sort != nil {
		k := m.sort.K
		*dz = tensor.Matrix{Rows: k, Cols: din.Len() / k, Data: din.Data}
		dz = m.sort.Backward(dz)
	} else {
		*dz = tensor.Matrix{Rows: din.H, Cols: din.W, Data: din.Data}
	}
	m.conv.Backward(dz)
}

// TrainStep runs one full training sample — per-sample noise seeding,
// forward, softmax-NLL loss and backward — accumulating parameter gradients.
// It is the zero-allocation core of the training loop: after one warm-up
// pass every buffer it touches comes from the replica's workspace or
// persistent scratch.
func (m *Model) TrainStep(a *acfg.ACFG, label int, seed int64) (loss float64, hit bool) {
	m.seedSampleNoise(seed)
	logits := m.forwardLogits(a, true)
	loss = nn.SoftmaxNLLInto(logits, label, m.probs, m.dlogits)
	hit = nn.ArgMax(logits) == label
	m.Backward(m.dlogits)
	return loss, hit
}

// WorkspaceStats reports the replica workspace's cumulative checkouts and
// the slab bytes it holds — the scratch of the largest graph this replica
// has run — feeding the magic_workspace_* gauges.
func (m *Model) WorkspaceStats() tensor.WorkspaceStats { return m.ws.Stats() }

// Predict returns the class-probability vector for one ACFG.
func (m *Model) Predict(a *acfg.ACFG) []float64 {
	return nn.Softmax(m.Forward(a, false))
}

// PredictClass returns the most likely class index.
func (m *Model) PredictClass(a *acfg.ACFG) int {
	return nn.ArgMax(m.Predict(a))
}

// NumParameters returns the total trainable scalar count, for reporting.
func (w *Weights) NumParameters() int {
	total := 0
	for _, v := range w.values {
		total += len(v.Data)
	}
	return total
}

// String summarizes the model variant for logs.
func (w *Weights) String() string {
	if w.Config.Pooling == SortPooling {
		return fmt.Sprintf("DGCNN[%v k=%d head=%v conv=%s%v params=%d]",
			w.Config.Pooling, w.K, w.Config.Head, w.Config.ConvName(), w.Config.ConvSizes, w.NumParameters())
	}
	gh, gw := w.Config.AMPGrid()
	return fmt.Sprintf("DGCNN[%v grid=%dx%d conv=%s%v params=%d]",
		w.Config.Pooling, gh, gw, w.Config.ConvName(), w.Config.ConvSizes, w.NumParameters())
}
