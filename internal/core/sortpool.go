package core

import (
	"sort"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// SortPool implements the SortPooling layer of Section III-A-3: vertices are
// sorted by their feature descriptors — primarily the last channel of the
// last graph-convolution layer (the most refined Weisfeiler-Lehman color),
// with ties broken by progressively earlier channels — and the sorted
// matrix is truncated or zero-padded to exactly K rows.
type SortPool struct {
	K int

	ws *nn.Workspace

	// Per-sample cache: order[i] is the source row of output row i, or -1
	// for padding. order and the sorter's index slice persist across
	// samples (grown once, fully rewritten) so a warmed-up forward
	// allocates nothing.
	order  []int
	inN    int
	inC    int
	sorter sortPoolSorter
}

// NewSortPool returns a sort-pooling layer producing K rows.
func NewSortPool(k int) *SortPool {
	if k < 1 {
		panic("core: sort pool k must be >= 1")
	}
	return &SortPool{K: k}
}

// SetWorkspace installs the scratch workspace the layer draws its output and
// gradient matrices from.
func (s *SortPool) SetWorkspace(ws *nn.Workspace) { s.ws = ws }

// sortPoolSorter orders row indices by the channels-right-to-left descending
// comparison of SortPooling. The row-index tiebreak makes the ordering a
// strict total order, so the unstable sort.Sort yields exactly the
// permutation the original sort.SliceStable produced.
type sortPoolSorter struct {
	z   *tensor.Matrix
	idx []int
}

func (p *sortPoolSorter) Len() int      { return len(p.idx) }
func (p *sortPoolSorter) Swap(a, b int) { p.idx[a], p.idx[b] = p.idx[b], p.idx[a] }

// Less orders by decreasing last channel, ties broken by the next channel to
// the left, repeating until all ties are broken (row index as the final
// deterministic tiebreak).
func (p *sortPoolSorter) Less(a, b int) bool {
	ra, rb := p.z.Row(p.idx[a]), p.z.Row(p.idx[b])
	for c := len(ra) - 1; c >= 0; c-- {
		// The comparator must order on exact bits; a tolerance would make
		// the sort order input-dependent.
		if ra[c] != rb[c] {
			return ra[c] > rb[c]
		}
	}
	return p.idx[a] < p.idx[b]
}

// Forward sorts, truncates/pads, and returns the K×D pooled matrix.
func (s *SortPool) Forward(z *tensor.Matrix) *tensor.Matrix {
	n, d := z.Rows, z.Cols
	s.inN, s.inC = n, d
	if cap(s.sorter.idx) < n {
		s.sorter.idx = make([]int, n)
	}
	s.sorter.idx = s.sorter.idx[:n]
	idx := s.sorter.idx
	for i := range idx {
		idx[i] = i
	}
	s.sorter.z = z
	sort.Sort(&s.sorter)

	out := s.ws.Matrix(s.K, d)
	if cap(s.order) < s.K {
		s.order = make([]int, s.K)
	}
	s.order = s.order[:s.K]
	for i := 0; i < s.K; i++ {
		if i < n {
			s.order[i] = idx[i]
			copy(out.Row(i), z.Row(idx[i]))
		} else {
			s.order[i] = -1
			// Padding rows must be written explicitly: workspace
			// checkouts are dirty.
			row := out.Row(i)
			for c := range row {
				row[c] = 0
			}
		}
	}
	return out
}

// Backward routes ∂L/∂Zsp rows back to their source vertices; padding rows
// contribute nothing.
func (s *SortPool) Backward(dout *tensor.Matrix) *tensor.Matrix {
	din := s.ws.Matrix(s.inN, s.inC)
	din.Zero() // the scatter below accumulates
	for i, src := range s.order {
		if src < 0 {
			continue
		}
		drow := din.Row(src)
		grow := dout.Row(i)
		for c, g := range grow {
			drow[c] += g
		}
	}
	return din
}
