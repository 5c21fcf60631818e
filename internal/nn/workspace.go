package nn

import "repro/internal/tensor"

// Workspace extends tensor.Workspace with Volume checkouts so layers can
// draw scratch feature maps from the same per-replica slab under the same
// lifetime rules: buffers are dirty on checkout, owned until Reset, and
// handed out again afterwards. One Workspace serves one model replica; it
// is not safe for concurrent use.
//
// The nil Workspace is valid: every checkout allocates a fresh zeroed
// buffer, so layers that were never handed a workspace (external callers,
// the baseline package) keep the old allocating behavior unchanged.
type Workspace struct {
	tw *tensor.Workspace

	vols []*Volume // headers, reused in checkout order; vols[:nvol] are live
	nvol int
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{tw: tensor.NewWorkspace()}
}

// Matrix checks out a dirty r×c scratch matrix (see tensor.Workspace).
func (w *Workspace) Matrix(r, c int) *tensor.Matrix {
	if w == nil {
		return tensor.New(r, c)
	}
	return w.tw.Matrix(r, c)
}

// Floats checks out a dirty []float64 of length n.
func (w *Workspace) Floats(n int) []float64 {
	if w == nil {
		return make([]float64, n)
	}
	return w.tw.Floats(n)
}

// Volume checks out a c×h×wd scratch volume with UNDEFINED contents. A nil
// workspace allocates a fresh zeroed volume.
func (w *Workspace) Volume(c, h, wd int) *Volume {
	if w == nil {
		return NewVolume(c, h, wd)
	}
	if w.nvol == len(w.vols) {
		w.vols = append(w.vols, &Volume{})
	}
	v := w.vols[w.nvol]
	w.nvol++
	v.C, v.H, v.W, v.Data = c, h, wd, w.tw.Floats(c*h*wd)
	return v
}

// Reset takes back every checked-out matrix, slice and volume, invalidating
// all buffers handed out since the previous Reset.
func (w *Workspace) Reset() {
	if w == nil {
		return
	}
	w.tw.Reset()
	for _, v := range w.vols[:w.nvol] {
		v.Data = nil
	}
	w.nvol = 0
}

// Stats returns cumulative checkouts and the bytes of slab held.
func (w *Workspace) Stats() tensor.WorkspaceStats {
	if w == nil {
		return tensor.WorkspaceStats{}
	}
	return w.tw.Stats()
}

// WorkspaceUser is implemented by layers (and layer containers) that can
// draw scratch buffers from a shared per-replica workspace instead of
// allocating per call.
type WorkspaceUser interface {
	SetWorkspace(ws *Workspace)
}

// wsHolder is the embeddable SetWorkspace implementation shared by the
// package's layers. The zero value (nil workspace) preserves the layers'
// original allocating behavior.
type wsHolder struct {
	ws *Workspace
}

// SetWorkspace installs the scratch workspace the layer draws from.
func (h *wsHolder) SetWorkspace(ws *Workspace) { h.ws = ws }
