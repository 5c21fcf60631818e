package acfg_test

import (
	"math/rand"
	"testing"

	"repro/internal/acfg"
	"repro/internal/malgen"
)

// servedListing returns a listing whose CFG has blocks ± 5 % basic blocks,
// made as the benchmark module's classify-asm-large pool makes them: the
// MSK profiles with their function counts ×4.
func servedListing(t *testing.T, blocks int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(blocks)))
	for tries := 0; tries < 10000; tries++ {
		p := malgen.MSKProfileFor(tries % len(malgen.MSKCFGFamilies()))
		p.FuncMin *= 4
		p.FuncMax *= 4
		text := malgen.GenerateProgram(rand.New(rand.NewSource(rng.Int63())), p)
		a, err := acfg.FromASM(text)
		if err != nil {
			t.Fatal(err)
		}
		if d := a.NumVertices() - blocks; d*20 <= blocks && -d*20 <= blocks {
			return text
		}
	}
	t.Fatalf("no listing of %d ± 5 %% blocks", blocks)
	return ""
}

// TestFromASMAllocsAtServedSizes pins the front half's heap objects on
// listings of the sizes the service is sent: the program, its instruction,
// pointer and operand slabs; the CFG, its block slab and pointers, the
// instruction-to-block index, the graph and its one successor slab; the
// ACFG and its matrix. None of them grows in number with the listing.
func TestFromASMAllocsAtServedSizes(t *testing.T) {
	for _, blocks := range []int{50, 180, 420} {
		text := servedListing(t, blocks)
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := acfg.FromASM(text); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 20 {
			t.Errorf("FromASM makes %.0f allocations on a %d-block listing, want ≤ 20", allocs, blocks)
		}
	}
}
