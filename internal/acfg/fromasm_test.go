package acfg_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/acfg"
	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/malgen"
)

func TestFromASMMatchesTheLongForm(t *testing.T) {
	text := malgen.GenerateProgram(rand.New(rand.NewSource(3)), malgen.MSKProfileFor(2))
	got, err := acfg.FromASM(text)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if want := acfg.FromCFG(cfg.Build(prog)); got.ContentHash() != want.ContentHash() {
		t.Fatal("FromASM differs from ParseString → Build → FromCFG")
	}
}

func TestFromASMErrors(t *testing.T) {
	if _, err := acfg.FromASM("00401000 nop\nzzz nop"); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("parse error = %v, want one naming line 2", err)
	}
	// A branch into the middle of an instruction puts a placeholder block
	// inside another block's range, which Validate refuses.
	if _, err := acfg.FromASM("00401000 jmp 0x401001\n00401002 ret"); err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("validate error = %v, want an overlap", err)
	}
}

// TestFromASMAllocs pins the front half's heap objects on the listing
// BenchmarkACFGExtraction times (3 669 before the slabs): the program, the
// instruction, pointer and operand slabs, the block slab and pointers, the
// attribute matrix — and, the only part that grows with the listing, the
// graph's one or two successor-list allocations per block with an edge.
func TestFromASMAllocs(t *testing.T) {
	text := malgen.GenerateProgram(rand.New(rand.NewSource(1)), malgen.MSKProfileFor(0))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := acfg.FromASM(text); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 150 {
		t.Fatalf("FromASM makes %.0f allocations on the benchmark listing, want ≤ 150", allocs)
	}
}
