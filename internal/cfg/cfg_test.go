package cfg

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asm"
)

const loopAsm = `
00401000  push ebp
00401001  mov  ebp, esp
00401003  mov  ecx, 10
00401008  xor  eax, eax
0040100a  add  eax, ecx
0040100c  dec  ecx
0040100d  cmp  ecx, 0
00401010  jnz  0x40100a
00401012  call 0x401020
00401017  pop  ebp
00401018  ret
00401020  mov  eax, 1
00401025  ret
`

func buildFrom(t *testing.T, text string) *CFG {
	t.Helper()
	p, err := asm.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	c := Build(p)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildLoopFunction(t *testing.T) {
	c := buildFrom(t, loopAsm)
	// Leaders: 0x401000 (entry), 0x40100a (jnz target), 0x401012 (jnz
	// fall-through), 0x401017 (call return site), 0x401020 (call target).
	wantStarts := []uint64{0x401000, 0x40100a, 0x401012, 0x401017, 0x401020}
	if c.NumBlocks() != len(wantStarts) {
		t.Fatalf("blocks = %d, want %d\n%s", c.NumBlocks(), len(wantStarts), c)
	}
	for i, start := range wantStarts {
		if c.Blocks[i].Start != start {
			t.Fatalf("block %d starts at %#x, want %#x", i, c.Blocks[i].Start, start)
		}
	}

	id := func(addr uint64) int {
		b := c.BlockAt(addr)
		if b == nil {
			t.Fatalf("no block at %#x", addr)
		}
		return b.ID
	}
	edges := [][2]uint64{
		{0x401000, 0x40100a}, // entry falls into loop body
		{0x40100a, 0x40100a}, // loop back edge (jnz to own leader)
		{0x40100a, 0x401012}, // loop exit fall-through
		{0x401012, 0x401020}, // call edge
		{0x401012, 0x401017}, // call return-site fall-through
	}
	for _, e := range edges {
		if !hasEdge(c, id(e[0]), id(e[1])) {
			t.Errorf("missing edge %#x -> %#x\n%s", e[0], e[1], c)
		}
	}
	// ret blocks have no successors.
	if got := c.Graph.OutDegree(id(0x401017)); got != 0 {
		t.Errorf("ret block out-degree = %d, want 0", got)
	}
	if got := c.Graph.OutDegree(id(0x401020)); got != 0 {
		t.Errorf("callee ret block out-degree = %d, want 0", got)
	}
}

// hasEdge reports whether c's graph has the edge u→v.
func hasEdge(c *CFG, u, v int) bool { return slices.Contains(c.Graph.Succ(u), v) }

func TestBlockInstructionPartition(t *testing.T) {
	c := buildFrom(t, loopAsm)
	total := 0
	for _, b := range c.Blocks {
		total += len(b.Insts)
	}
	if total != 13 {
		t.Fatalf("total instructions = %d, want 13", total)
	}
	// Entry block holds the four instructions before the loop leader.
	if got := len(c.Blocks[0].Insts); got != 4 {
		t.Fatalf("entry block has %d instructions, want 4\n%s", got, c)
	}
	// Loop body: add, dec, cmp, jnz.
	if got := len(c.BlockAt(0x40100a).Insts); got != 4 {
		t.Fatalf("loop block has %d instructions, want 4", got)
	}
}

func TestUnconditionalJumpBlockSplit(t *testing.T) {
	c := buildFrom(t, `
00401000 mov eax, 1
00401005 jmp 0x40100a
00401007 mov ebx, 2
0040100a ret
`)
	// Blocks: entry(mov,jmp), dead(mov), target(ret).
	if c.NumBlocks() != 3 {
		t.Fatalf("blocks = %d, want 3\n%s", c.NumBlocks(), c)
	}
	entry, dead, target := c.Blocks[0], c.Blocks[1], c.Blocks[2]
	if !hasEdge(c, entry.ID, target.ID) {
		t.Fatal("missing jmp edge")
	}
	if hasEdge(c, entry.ID, dead.ID) {
		t.Fatal("jmp must not fall through to dead code")
	}
	// Dead code falls through into the target block.
	if !hasEdge(c, dead.ID, target.ID) {
		t.Fatal("dead block should fall through to target")
	}
}

func TestBranchOutsideProgramCreatesExternalBlock(t *testing.T) {
	c := buildFrom(t, `
00401000 call 0x500000
00401005 ret
`)
	// The external callee gets an empty placeholder block.
	ext := c.BlockAt(0x500000)
	if ext == nil {
		t.Fatalf("no external block\n%s", c)
	}
	if len(ext.Insts) != 0 {
		t.Fatalf("external block has %d instructions, want 0", len(ext.Insts))
	}
	if !hasEdge(c, c.BlockAt(0x401000).ID, ext.ID) {
		t.Fatal("missing edge to external block")
	}
}

func TestJumpThroughByteRegisterIsIndirect(t *testing.T) {
	// ch is a register, not the address 0xc: no placeholder block, no edge.
	c := buildFrom(t, `
00401000 jmp ch
00401002 ret
`)
	if c.NumBlocks() != 2 || c.NumEdges() != 0 || c.BlockAt(0xc) != nil {
		t.Fatalf("blocks = %d, edges = %d\n%s", c.NumBlocks(), c.NumEdges(), c)
	}
}

func TestSingleBlockProgram(t *testing.T) {
	c := buildFrom(t, `
00401000 mov eax, 1
00401005 ret
`)
	if c.NumBlocks() != 1 {
		t.Fatalf("blocks = %d, want 1", c.NumBlocks())
	}
	if c.NumEdges() != 0 {
		t.Fatalf("edges = %d, want 0", c.NumEdges())
	}
}

func TestEmptyProgram(t *testing.T) {
	p, err := asm.ParseString("")
	if err != nil {
		t.Fatal(err)
	}
	c := Build(p)
	if c.NumBlocks() != 0 {
		t.Fatalf("blocks = %d, want 0", c.NumBlocks())
	}
}

func TestConsecutiveJumps(t *testing.T) {
	c := buildFrom(t, `
00401000 jz 0x401004
00401002 jmp 0x401006
00401004 nop
00401005 ret
00401006 ret
`)
	// jz: leader targets at 0x401004 and fall-through 0x401002.
	// Note 0x401004 nop falls through into 0x401005 which is NOT a leader,
	// so nop+ret form one block.
	b0 := c.BlockAt(0x401000)
	b1 := c.BlockAt(0x401002)
	b2 := c.BlockAt(0x401004)
	b3 := c.BlockAt(0x401006)
	if b0 == nil || b1 == nil || b2 == nil || b3 == nil {
		t.Fatalf("missing blocks\n%s", c)
	}
	if c.NumBlocks() != 4 {
		t.Fatalf("blocks = %d, want 4\n%s", c.NumBlocks(), c)
	}
	if len(b2.Insts) != 2 {
		t.Fatalf("nop block has %d instructions, want 2 (nop+ret)", len(b2.Insts))
	}
	for _, e := range [][2]int{{b0.ID, b2.ID}, {b0.ID, b1.ID}, {b1.ID, b3.ID}} {
		if !hasEdge(c, e[0], e[1]) {
			t.Fatalf("missing edge %v\n%s", e, c)
		}
	}
}

func TestBackToBackCalls(t *testing.T) {
	c := buildFrom(t, `
00401000 call 0x401010
00401005 call 0x401010
0040100a ret
00401010 ret
`)
	callee := c.BlockAt(0x401010)
	b0 := c.BlockAt(0x401000)
	b1 := c.BlockAt(0x401005)
	if b0 == nil || b1 == nil || callee == nil {
		t.Fatalf("missing blocks\n%s", c)
	}
	if !hasEdge(c, b0.ID, callee.ID) || !hasEdge(c, b1.ID, callee.ID) {
		t.Fatal("both call sites must edge to the callee")
	}
	if !hasEdge(c, b0.ID, b1.ID) {
		t.Fatal("first call must fall through to second")
	}
}

// TestEveryInstructionAssignedExactlyOnce is the partition invariant: the
// blocks of a CFG partition the program's instructions.
func TestEveryInstructionAssignedExactlyOnce(t *testing.T) {
	f := func(seed int64) bool {
		text := randomProgramText(rand.New(rand.NewSource(seed)))
		p, err := asm.ParseString(text)
		if err != nil {
			return false
		}
		c := Build(p)
		if err := c.Validate(); err != nil {
			return false
		}
		seen := make(map[uint64]int)
		for _, b := range c.Blocks {
			for _, in := range b.Insts {
				seen[in.Addr]++
			}
		}
		if len(seen) != p.Len() {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	c := buildFrom(t, loopAsm)
	text := c.String()
	for _, want := range []string{"block 0", "push", "jnz", "-> [1]"} {
		if !strings.Contains(text, want) {
			t.Fatalf("String() missing %q:\n%s", want, text)
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	c := buildFrom(t, loopAsm)
	// Corrupt the ID sequence.
	c.Blocks[1].ID = 7
	if err := c.Validate(); err == nil {
		t.Fatal("want ID error")
	}
	c.Blocks[1].ID = 1

	// Corrupt instruction order inside a block.
	b := c.Blocks[0]
	b.Insts[0], b.Insts[1] = b.Insts[1], b.Insts[0]
	if err := c.Validate(); err == nil {
		t.Fatal("want order error")
	}
	b.Insts[0], b.Insts[1] = b.Insts[1], b.Insts[0]

	// Corrupt a block's start address.
	oldStart := c.Blocks[2].Start
	c.Blocks[2].Start = oldStart + 1
	if err := c.Validate(); err == nil {
		t.Fatal("want first-instruction mismatch error")
	}
	c.Blocks[2].Start = oldStart

	if err := c.Validate(); err != nil {
		t.Fatalf("restored CFG should validate: %v", err)
	}
}

// randomProgramText emits a small random but well-formed program mixing
// straight-line code, conditional/unconditional jumps to random in-range
// addresses, calls and returns.
func randomProgramText(rng *rand.Rand) string {
	n := 5 + rng.Intn(40)
	addrs := make([]uint64, n)
	base := uint64(0x400000)
	for i := range addrs {
		addrs[i] = base
		base += uint64(1 + rng.Intn(6))
	}
	var sb []byte
	for i, addr := range addrs {
		target := addrs[rng.Intn(n)]
		var line string
		switch rng.Intn(8) {
		case 0:
			line = fmt.Sprintf("%08x jnz 0x%x", addr, target)
		case 1:
			line = fmt.Sprintf("%08x jmp 0x%x", addr, target)
		case 2:
			line = fmt.Sprintf("%08x call 0x%x", addr, target)
		case 3:
			line = fmt.Sprintf("%08x ret", addr)
		case 4:
			line = fmt.Sprintf("%08x cmp eax, %d", addr, rng.Intn(100))
		default:
			line = fmt.Sprintf("%08x mov eax, %d", addr, rng.Intn(100))
		}
		_ = i
		sb = append(sb, line...)
		sb = append(sb, '\n')
	}
	return string(sb)
}
