// Package cfg builds control flow graphs from disassembled programs using
// the two-pass procedure of Section IV-A: the first pass tags instructions
// via the asm.Tagger visitor (Algorithm 1), and the second pass —
// connectBlocks, Algorithm 2 — lays the basic blocks out at the tagged
// leaders and wires fall-through and branch edges.
package cfg

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Block is a basic block: a straight-line instruction sequence with control
// flow transitions only at its exit.
type Block struct {
	ID    int
	Start uint64
	Insts []*asm.Instruction
}

// CFG is a control flow graph: basic blocks (sorted by start address, IDs
// dense 0..n-1) plus the directed edge structure between them.
type CFG struct {
	Blocks []*Block
	Graph  *graph.Directed
}

// Build runs both passes over the program and returns its CFG. Programs with
// no instructions yield an empty CFG.
func Build(p *asm.Program) *CFG {
	defer obs.TimeStage(obs.StageCFGBuild)()
	asm.TagProgram(p)
	return connectBlocks(p)
}

// connectBlocks is Algorithm 2 over an address-ordered program that
// TagProgram has tagged. Where blocks start is known before the sweep — at
// every leader, and at every branch target outside the program, which gets
// an empty placeholder block — so the blocks are first laid out in address
// order in one slab, each block's Insts a sub-slice of p.Insts, and blockOf
// records the block of every instruction. The sweep then lists each block's
// successors in one slab: the block of each branch target, found through
// the target's instruction index, and the block of the instruction after
// the last, where control falls through. No address is searched for but a
// placeholder's.
func connectBlocks(p *asm.Program) *CFG {
	insts := p.Insts
	leaders, branches := 0, 0
	var external []uint64
	for i, inst := range insts {
		if inst.Start || i == 0 {
			leaders++
		}
		if inst.HasBranch {
			branches++
			if inst.BranchIndex() < 0 {
				external = append(external, inst.BranchTo)
			}
		}
	}
	slices.Sort(external)
	external = slices.Compact(external)

	slab := make([]Block, 0, leaders+len(external))
	blockOf := make([]int32, len(insts)+len(external))
	externalID := blockOf[len(insts):] // the placeholders' blocks, in external's order
	blockOf = blockOf[:len(insts):len(insts)]
	placed := 0 // externals placed
	placeholder := func() {
		externalID[placed] = int32(len(slab))
		slab = append(slab, Block{ID: len(slab), Start: external[placed]})
		placed++
	}
	for i := 0; i < len(insts); {
		for placed < len(external) && external[placed] < insts[i].Addr {
			placeholder()
		}
		end := i + 1
		for end < len(insts) && !insts[end].Start {
			end++
		}
		id := len(slab)
		slab = append(slab, Block{ID: id, Start: insts[i].Addr, Insts: insts[i:end:end]})
		for k := i; k < end; k++ {
			blockOf[k] = int32(id)
		}
		i = end
	}
	for placed < len(external) {
		placeholder()
	}

	// A block's successors: one per branching instruction — TagProgram
	// ends a block at each, so there is at most one — and one fall-through.
	succ := make([]int, 0, branches+leaders)
	out := make([][]int, len(slab))
	first := 0 // where the current block's successors start in succ
	for i, inst := range insts {
		if inst.HasBranch {
			if t := inst.BranchIndex(); t >= 0 {
				succ = append(succ, int(blockOf[t]))
			} else {
				k, _ := slices.BinarySearch(external, inst.BranchTo)
				succ = append(succ, int(externalID[k]))
			}
		}
		b := blockOf[i]
		if i+1 < len(insts) && blockOf[i+1] == b {
			continue // not the block's last instruction
		}
		if inst.FallThrough && i+1 < len(insts) {
			succ = append(succ, int(blockOf[i+1]))
		}
		if list := sortedSet(succ[first:]); len(list) > 0 {
			out[b] = list
			succ = succ[:first+len(list)]
		}
		first = len(succ)
	}

	c := &CFG{Blocks: make([]*Block, len(slab)), Graph: graph.FromSuccessors(out)}
	for i := range slab {
		c.Blocks[i] = &slab[i]
	}
	return c
}

// sortedSet sorts s and drops its repeats in place, returning the set: the
// successor list graph.Directed.AddEdge would have built from s.
func sortedSet(s []int) []int {
	switch len(s) {
	case 0, 1:
		return s
	case 2:
		if s[0] > s[1] {
			s[0], s[1] = s[1], s[0]
		}
		if s[0] == s[1] {
			return s[:1]
		}
		return s
	}
	slices.Sort(s)
	return slices.Compact(s)
}

// BlockAt returns the block starting at addr, or nil.
func (c *CFG) BlockAt(addr uint64) *Block {
	i := sort.Search(len(c.Blocks), func(i int) bool { return c.Blocks[i].Start >= addr })
	if i < len(c.Blocks) && c.Blocks[i].Start == addr {
		return c.Blocks[i]
	}
	return nil
}

// NumBlocks returns the number of basic blocks.
func (c *CFG) NumBlocks() int { return len(c.Blocks) }

// NumEdges returns the number of directed edges.
func (c *CFG) NumEdges() int { return c.Graph.NumEdges() }

// Validate checks structural invariants: dense sorted IDs, non-overlapping
// blocks, every edge endpoint in range, and each non-empty block's
// instructions contiguous in address order.
func (c *CFG) Validate() error {
	var prevEnd uint64
	for i, b := range c.Blocks {
		if b.ID != i {
			return fmt.Errorf("cfg: block %d has ID %d", i, b.ID)
		}
		if i > 0 && b.Start < prevEnd {
			return fmt.Errorf("cfg: block %d at %#x overlaps previous ending at %#x", i, b.Start, prevEnd)
		}
		for j, inst := range b.Insts {
			if j == 0 && inst.Addr != b.Start {
				return fmt.Errorf("cfg: block %d first instruction %#x != start %#x", i, inst.Addr, b.Start)
			}
			if j > 0 && inst.Addr <= b.Insts[j-1].Addr {
				return fmt.Errorf("cfg: block %d instructions out of order at %#x", i, inst.Addr)
			}
		}
		if n := len(b.Insts); n > 0 {
			prevEnd = b.Insts[n-1].Addr + b.Insts[n-1].Size
		} else {
			prevEnd = b.Start
		}
	}
	return nil
}

// String renders the CFG's blocks and edges for debugging and the
// cfgexplore example.
func (c *CFG) String() string {
	var sb strings.Builder
	for _, b := range c.Blocks {
		fmt.Fprintf(&sb, "block %d @ %#x (%d insts)", b.ID, b.Start, len(b.Insts))
		if succ := c.Graph.Succ(b.ID); len(succ) > 0 {
			fmt.Fprintf(&sb, " -> %v", succ)
		}
		sb.WriteString("\n")
		for _, in := range b.Insts {
			ops := strings.Join(in.Operands, ", ")
			fmt.Fprintf(&sb, "  %08x  %-6s %s\n", in.Addr, in.Mnemonic, ops)
		}
	}
	return sb.String()
}
