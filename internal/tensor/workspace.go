package tensor

// maxRetainElems bounds the slab a workspace keeps across Reset, in float64
// elements (64 MiB). A default-config model checks out 2.4 KB of scratch per
// vertex to predict and 6.3 KB to train (TestWorkspaceBytesPerVertex in
// internal/core pins both), so graphs up to ≈ 28 000 basic blocks predict
// warm and ≈ 10 600 train warm; anything larger still runs, it just
// allocates its scratch per sample instead of pinning it in every replica
// for the life of the process. The service's vertex limit sits below both,
// so every graph it admits is warm from its second appearance on.
const maxRetainElems = (64 << 20) / 8

// Workspace is a bump arena of scratch matrices and float slices for the
// destination-passing kernels in into.go. The training hot path checks
// buffers out per sample, fills them with *Into kernels, and returns
// everything at once with Reset. Checkouts are consecutive sub-slices of one
// slab, so a workspace's footprint is that of the largest sample it has
// seen — not the sum over every size — and once that sample has passed,
// every smaller size, seen before or not, is served with zero heap
// allocations.
//
// Live checkouts cannot move, so a sample that outgrows the slab continues
// in a fresh overflow chunk of at least twice the size; the next Reset
// replaces the chunks with one slab of exactly that sample's total (or with
// nothing, above maxRetainElems).
//
// Checked-out buffers are DIRTY: they hold whatever the previous user left
// behind. Every consumer must either fully define the buffer (the *Into
// kernel contract) or explicitly zero it before accumulating — the
// differential fuzz tests exercise exactly this reuse pattern.
//
// A Workspace is owned by one goroutine (in the data-parallel engine, each
// model replica owns its own) and is not safe for concurrent use. The nil
// Workspace is valid and degrades gracefully: every checkout allocates a
// fresh zeroed buffer, so workspace-free callers keep the old allocating
// behavior.
type Workspace struct {
	slab    []float64 // current chunk; slab[:off] is checked out
	off     int
	spilled int // elements checked out of chunks outgrown since the last Reset

	mats []*Matrix // headers, reused in checkout order; mats[:nmat] are live
	nmat int

	checkouts uint64
}

// WorkspaceStats is a snapshot of a workspace's footprint: the cumulative
// checkout count and the bytes of scratch backing it owns. Exported so the
// parallel engine can sum replica workspaces into the magic_workspace_*
// gauges.
type WorkspaceStats struct {
	Checkouts uint64
	Bytes     uint64
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Matrix checks out an r×c scratch matrix with UNDEFINED contents. The
// matrix belongs to the caller until the next Reset, after which both the
// header and its backing array are handed to someone else. A nil workspace
// allocates a fresh zeroed matrix instead.
func (w *Workspace) Matrix(r, c int) *Matrix {
	if w == nil {
		return New(r, c)
	}
	if w.nmat == len(w.mats) {
		w.mats = append(w.mats, &Matrix{})
	}
	m := w.mats[w.nmat]
	w.nmat++
	m.Rows, m.Cols, m.Data = r, c, w.Floats(r*c)
	return m
}

// Floats checks out a dirty []float64 of length n under the same lifetime
// rules as Matrix. Its capacity is n too, so an append reallocates instead
// of writing into the next checkout. A nil workspace allocates a fresh
// zeroed slice.
func (w *Workspace) Floats(n int) []float64 {
	if w == nil {
		return make([]float64, n)
	}
	w.checkouts++
	if w.off+n > len(w.slab) {
		w.spilled += w.off
		w.slab = make([]float64, max(2*len(w.slab), n))
		w.off = 0
	}
	s := w.slab[w.off : w.off+n : w.off+n]
	w.off += n
	return s
}

// Reset takes every checked-out buffer back. All matrices and slices handed
// out since the previous Reset become invalid: the slab is handed out again
// from the start, and the headers are emptied so a stale one fails loudly
// instead of aliasing its successor. Nil workspaces are a no-op.
func (w *Workspace) Reset() {
	if w == nil {
		return
	}
	if w.spilled > 0 || len(w.slab) > maxRetainElems {
		total := w.spilled + w.off
		w.slab = nil
		if total <= maxRetainElems {
			w.slab = make([]float64, total)
		}
		w.spilled = 0
	}
	for _, m := range w.mats[:w.nmat] {
		m.Data = nil
	}
	w.off, w.nmat = 0, 0
}

// Stats returns the workspace's cumulative checkout count and the bytes of
// slab it holds (mid-sample, plus what is checked out of outgrown chunks).
// Nil workspaces report zeros.
func (w *Workspace) Stats() WorkspaceStats {
	if w == nil {
		return WorkspaceStats{}
	}
	return WorkspaceStats{Checkouts: w.checkouts, Bytes: uint64(8 * (w.spilled + len(w.slab)))}
}
