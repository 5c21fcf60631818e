package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Coverage-guided differential fuzzing of each conv backend against its
// straight-loop oracle (see conv_oracle_test.go). The fuzz input seeds an
// rng that derives the graph topology, layer sizes and attribute values, so
// mutation explores graph shapes (isolated vertices, self loops, duplicate
// edges, single-vertex graphs) as well as numeric ranges. Agreement is
// required bit for bit: the backends promise fixed accumulation orders, and
// the oracles reproduce exactly those orders from first principles.

func fuzzConvBackend(f *testing.F, name string) {
	f.Add(int64(1), uint8(5), uint8(3))
	f.Add(int64(42), uint8(1), uint8(0))
	f.Add(int64(-7), uint8(12), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, shapeRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%12) + 1
		g := graph.NewDirected(n)
		for u := 0; u < n; u++ {
			if rng.Intn(4) == 0 {
				continue // isolated vertex
			}
			for e := rng.Intn(5); e > 0; e-- {
				g.AddEdge(u, rng.Intn(n)) // self loops and duplicates allowed
			}
		}
		attrDim := int(shapeRaw%4) + 1
		sizes := []int{int(shapeRaw%5) + 1, int(nRaw%4) + 1}
		stack := newTestBackend(t, name, rng, attrDim, sizes)
		x := tensor.New(n, attrDim)
		for i := range x.Data {
			if rng.Intn(8) == 0 {
				x.Data[i] = 0
			} else {
				x.Data[i] = rng.NormFloat64()
			}
		}
		got := stack.Forward(graph.NewCSR(g), x)
		want := oracleConvForward(t, stack, g, x)
		requireConvBitEqual(t, name, int(seed), got, want)
	})
}

func FuzzConvGCN(f *testing.F)  { fuzzConvBackend(f, "gcn") }
func FuzzConvSAGE(f *testing.F) { fuzzConvBackend(f, "sage") }
func FuzzConvTAG(f *testing.F)  { fuzzConvBackend(f, "tag") }
func FuzzConvAttn(f *testing.F) { fuzzConvBackend(f, "attn") }
