// Package graph provides the directed-graph substrate for the DGCNN malware
// classifier. A control flow graph is modelled as a Directed graph whose
// vertices are basic-block indices; the package supplies the augmented
// adjacency matrix Ā = A + I, the augmented diagonal degree matrix D̄, and
// the normalized propagation operator D̄⁻¹Ā used by the graph-convolution
// layers (Section III-A of the paper), in a sparse form suitable for
// repeated multiplication against attribute matrices.
package graph

import (
	"fmt"
	"sort"

	"repro/internal/tensor"
)

// Directed is a simple directed graph on vertices 0..N-1 using adjacency
// lists. Parallel edges are collapsed; self loops are allowed (although the
// augmented adjacency adds its own).
type Directed struct {
	n   int
	out [][]int // sorted successor lists
}

// NewDirected returns an empty graph with n vertices.
func NewDirected(n int) *Directed {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Directed{
		n:   n,
		out: make([][]int, n),
	}
}

// N returns the number of vertices.
func (g *Directed) N() int { return g.n }

// AddEdge inserts the directed edge u→v. Duplicate insertions are ignored.
// It panics on out-of-range vertices (programming error).
func (g *Directed) AddEdge(u, v int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, g.n))
	}
	// Insert in sorted position so successor lists are always ordered and
	// Succ never has to mutate — a built graph is then safe for concurrent
	// readers (model replicas rebuild their propagation operators from the
	// graphs on worker goroutines). The sorted list doubles as the dedup
	// structure: CFG out-degrees are tiny (≤2 for real basic blocks), so a
	// binary search beats per-vertex hash maps on both time and memory —
	// corpus replay decodes millions of AddEdge calls.
	row := g.out[u]
	i := sort.SearchInts(row, v)
	if i < len(row) && row[i] == v {
		return
	}
	row = append(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = v
	g.out[u] = row
}

// Succ returns the successors of u. The returned slice is sorted and must
// not be modified. Succ performs no writes, so a fully built graph may be
// read from multiple goroutines concurrently.
func (g *Directed) Succ(u int) []int {
	return g.out[u]
}

// OutDegree returns the number of successors of u (the "# offspring"
// attribute of Table I).
func (g *Directed) OutDegree(u int) int { return len(g.out[u]) }

// NumEdges returns the total number of directed edges.
func (g *Directed) NumEdges() int {
	total := 0
	for _, s := range g.out {
		total += len(s)
	}
	return total
}

// Edges returns all edges as (u, v) pairs in deterministic order.
func (g *Directed) Edges() [][2]int {
	var es [][2]int
	for u := 0; u < g.n; u++ {
		for _, v := range g.Succ(u) {
			es = append(es, [2]int{u, v})
		}
	}
	return es
}

// Adjacency returns the dense adjacency matrix A (1 where u→v).
func (g *Directed) Adjacency() *tensor.Matrix {
	a := tensor.New(g.n, g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.out[u] {
			a.Set(u, v, 1)
		}
	}
	return a
}

// AugmentedAdjacency returns Ā = A + I, which lets a vertex propagate its
// own attributes back to itself during graph convolution.
func (g *Directed) AugmentedAdjacency() *tensor.Matrix {
	a := g.Adjacency()
	for i := 0; i < g.n; i++ {
		a.Set(i, i, a.At(i, i)+1)
	}
	return a
}

// AugmentedDegrees returns the diagonal of D̄ where D̄ᵢᵢ = Σⱼ Āᵢⱼ.
func (g *Directed) AugmentedDegrees() []float64 {
	d := make([]float64, g.n)
	for u := 0; u < g.n; u++ {
		// Every successor contributes 1 (a self loop included) and the
		// identity augmentation contributes 1 more.
		d[u] = float64(len(g.out[u])) + 1
	}
	return d
}

// BFSOrder returns the vertices reachable from start in breadth-first order.
func (g *Directed) BFSOrder(start int) []int {
	if start < 0 || start >= g.n {
		return nil
	}
	seen := make([]bool, g.n)
	order := make([]int, 0, g.n)
	queue := []int{start}
	seen[start] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range g.Succ(u) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return order
}

// ReachableFrom returns the number of vertices reachable from start
// (including start itself).
func (g *Directed) ReachableFrom(start int) int {
	return len(g.BFSOrder(start))
}
