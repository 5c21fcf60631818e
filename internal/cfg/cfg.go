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

// NumInsts returns the number of instructions in the block.
func (b *Block) NumInsts() int { return len(b.Insts) }

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

// connectBlocks is Algorithm 2 over an address-ordered program. Where
// blocks start is known before the sweep — at every leader, and at every
// branch target outside the program, which gets an empty placeholder block —
// so the blocks are first laid out in address order in one slab, each
// block's Insts a sub-slice of p.Insts, and the sweep then only links
// fall-through successors and branch targets.
func connectBlocks(p *asm.Program) *CFG {
	leaders := 0
	var external []uint64
	for i, inst := range p.Insts {
		if inst.Start || i == 0 {
			leaders++
		}
		if inst.HasBranch && p.IndexOf(inst.BranchTo) < 0 {
			external = append(external, inst.BranchTo)
		}
	}
	slices.Sort(external)
	external = slices.Compact(external)

	slab := make([]Block, 0, leaders+len(external))
	place := func(start uint64, insts []*asm.Instruction) {
		slab = append(slab, Block{ID: len(slab), Start: start, Insts: insts})
	}
	for i := 0; i < len(p.Insts); {
		start := p.Insts[i].Addr
		for len(external) > 0 && external[0] < start {
			place(external[0], nil)
			external = external[1:]
		}
		end := i + 1
		for end < len(p.Insts) && !p.Insts[end].Start {
			end++
		}
		place(start, p.Insts[i:end:end])
		i = end
	}
	for _, addr := range external {
		place(addr, nil)
	}

	c := &CFG{Blocks: make([]*Block, len(slab)), Graph: graph.NewDirected(len(slab))}
	for i := range slab {
		c.Blocks[i] = &slab[i]
	}
	for _, b := range c.Blocks {
		for _, inst := range b.Insts {
			if inst.HasBranch {
				c.Graph.AddEdge(b.ID, c.BlockAt(inst.BranchTo).ID)
			}
		}
		if n := len(b.Insts); n > 0 && b.Insts[n-1].FallThrough {
			if next := p.Next(b.Insts[n-1]); next != nil {
				c.Graph.AddEdge(b.ID, c.BlockAt(next.Addr).ID)
			}
		}
	}
	return c
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

// TotalInstructions returns the instruction count across all blocks.
func (c *CFG) TotalInstructions() int {
	total := 0
	for _, b := range c.Blocks {
		total += len(b.Insts)
	}
	return total
}

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
