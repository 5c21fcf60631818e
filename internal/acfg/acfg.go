// Package acfg converts control flow graphs into attributed CFGs: every
// basic block is summarized by the 11 numeric block-level attributes of
// Table I (code-sequence counters plus vertex-structure counters). The ACFG
// — the graph structure together with its n×11 attribute matrix — is the
// input representation consumed by the DGCNN classifier.
package acfg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Attribute indices into a block's attribute vector, in Table I order.
const (
	AttrNumericConstants = iota
	AttrTransfer
	AttrCall
	AttrArithmetic
	AttrCompare
	AttrMov
	AttrTermination
	AttrDataDeclaration
	AttrTotalInstructions
	AttrOffspring
	AttrInstructionsInVertex

	// NumAttributes is the attribute-vector width c.
	NumAttributes = 11
)

// AttributeNames lists the Table I attribute names in vector order.
var AttributeNames = [NumAttributes]string{
	"# Numeric Constants",
	"# Transfer Instructions",
	"# Call Instructions",
	"# Arithmetic Instructions",
	"# Compare Instructions",
	"# Mov Instructions",
	"# Termination Instructions",
	"# Data Declaration Instructions",
	"# Total Instructions",
	"# Offspring, i.e., Degree",
	"# Instructions in the Vertex",
}

// ACFG is an attributed control flow graph: the block-level directed graph
// plus an n×11 matrix of Table I attributes (row i describes vertex i).
type ACFG struct {
	Graph *graph.Directed
	Attrs *tensor.Matrix
}

// FromASM runs the whole front half of the pipeline on one disassembly
// listing: parse, the two-pass CFG build, the CFG's structural check, and
// Table I attribute extraction. The returned ACFG does not alias text.
func FromASM(text string) (*ACFG, error) {
	prog, err := asm.ParseString(text)
	if err != nil {
		return nil, err
	}
	c := cfg.Build(prog)
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return FromCFG(c), nil
}

// FromCFG extracts Table I attributes for every block of c.
func FromCFG(c *cfg.CFG) *ACFG {
	defer obs.TimeStage(obs.StageACFGAnnotate)()
	n := c.NumBlocks()
	attrs := tensor.New(n, NumAttributes)
	for i, b := range c.Blocks {
		row := attrs.Row(i)
		for _, inst := range b.Insts {
			row[AttrNumericConstants] += float64(inst.NumericConstants())
			switch inst.Category() {
			case asm.CatTransfer:
				row[AttrTransfer]++
			case asm.CatCall:
				row[AttrCall]++
			case asm.CatArithmetic:
				row[AttrArithmetic]++
			case asm.CatCompare:
				row[AttrCompare]++
			case asm.CatMov:
				row[AttrMov]++
			case asm.CatTermination:
				row[AttrTermination]++
			case asm.CatDataDeclaration:
				row[AttrDataDeclaration]++
			}
			row[AttrTotalInstructions]++
		}
		row[AttrOffspring] = float64(c.Graph.OutDegree(i))
		row[AttrInstructionsInVertex] = float64(len(b.Insts))
	}
	return &ACFG{Graph: c.Graph, Attrs: attrs}
}

// New builds an ACFG directly from a graph and a pre-computed attribute
// matrix (the YANCFG path, where CFGs arrive pre-extracted). The matrix must
// have one row per vertex and NumAttributes columns.
func New(g *graph.Directed, attrs *tensor.Matrix) (*ACFG, error) {
	if attrs.Rows != g.N() {
		return nil, fmt.Errorf("acfg: %d attribute rows for %d vertices", attrs.Rows, g.N())
	}
	if attrs.Cols != NumAttributes {
		return nil, fmt.Errorf("acfg: %d attribute columns, want %d", attrs.Cols, NumAttributes)
	}
	return &ACFG{Graph: g, Attrs: attrs}, nil
}

// NumVertices returns the vertex count n.
func (a *ACFG) NumVertices() int { return a.Graph.N() }

// ContentHash returns a canonical SHA-256 digest of the ACFG: vertex
// count, every edge in (source, sorted-successor) order, and the raw bits
// of the attribute matrix. Two ACFGs describing the same graph with the
// same attributes hash identically regardless of how they were built or
// serialized, which is what makes the digest usable as a cache and dedup
// key — the same binary resubmitted by many endpoints is one entry.
func (a *ACFG) ContentHash() [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	writeUint := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	n := a.Graph.N()
	writeUint(uint64(n))
	for u := 0; u < n; u++ {
		for _, v := range a.Graph.Succ(u) {
			writeUint(uint64(u))
			writeUint(uint64(v))
		}
	}
	writeUint(uint64(a.Attrs.Rows))
	writeUint(uint64(a.Attrs.Cols))
	for _, v := range a.Attrs.Data {
		writeUint(math.Float64bits(v))
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// jsonACFG is the serialized form.
type jsonACFG struct {
	N     int         `json:"n"`
	Edges [][2]int    `json:"edges"`
	Attrs [][]float64 `json:"attrs"`
}

// MarshalJSON encodes the ACFG as vertices, edge list and attribute rows.
func (a *ACFG) MarshalJSON() ([]byte, error) {
	j := jsonACFG{N: a.Graph.N(), Edges: a.Graph.Edges()}
	j.Attrs = make([][]float64, a.Attrs.Rows)
	for i := range j.Attrs {
		row := make([]float64, a.Attrs.Cols)
		copy(row, a.Attrs.Row(i))
		j.Attrs[i] = row
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes the wire form produced by MarshalJSON.
func (a *ACFG) UnmarshalJSON(data []byte) error {
	var j jsonACFG
	if err := json.Unmarshal(data, &j); err != nil {
		return fmt.Errorf("acfg: decode: %w", err)
	}
	// Hold the claimed vertex count to the attribute rows actually present
	// before sizing anything by it: the document comes from outside the
	// program, a negative n would panic in NewDirected and a huge one would
	// allocate n adjacency lists. The rows are bounded by the body's size.
	if len(j.Attrs) != j.N {
		return fmt.Errorf("acfg: %d attribute rows for %d vertices", len(j.Attrs), j.N)
	}
	g := graph.NewDirected(j.N)
	for _, e := range j.Edges {
		if e[0] < 0 || e[0] >= j.N || e[1] < 0 || e[1] >= j.N {
			return fmt.Errorf("acfg: edge %v out of range n=%d", e, j.N)
		}
		g.AddEdge(e[0], e[1])
	}
	attrs, err := tensor.FromRows(j.Attrs)
	if err != nil {
		return fmt.Errorf("acfg: attrs: %w", err)
	}
	if j.N > 0 && attrs.Cols != NumAttributes {
		return fmt.Errorf("acfg: %d attribute columns, want %d", attrs.Cols, NumAttributes)
	}
	if j.N == 0 {
		attrs = tensor.New(0, NumAttributes)
	}
	a.Graph = g
	a.Attrs = attrs
	return nil
}

// Write encodes the ACFG as JSON to w.
func (a *ACFG) Write(w io.Writer) error {
	return json.NewEncoder(w).Encode(a)
}

// Read decodes an ACFG from JSON.
func Read(r io.Reader) (*ACFG, error) {
	var a ACFG
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("acfg: read: %w", err)
	}
	return &a, nil
}
