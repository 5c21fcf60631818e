package cfg

import (
	"sort"

	"repro/internal/asm"
	"repro/internal/graph"
)

// The block builder as it stood at commit 7493e98 — blocks in a map keyed by
// start address, edges in a map of sets, ordered and numbered at the end —
// kept verbatim (names prefixed) as the oracle FuzzFrontHalf holds
// connectBlocks to.

// oracleBuilder implements Algorithm 2's mutable state.
type oracleBuilder struct {
	blocks  map[uint64]*Block
	edges   map[uint64]map[uint64]bool // start addr -> set of successor start addrs
	ordered []uint64
}

// getBlockAtAddr returns the block starting at addr, creating it if needed —
// the paper's helper of the same name.
func (b *oracleBuilder) getBlockAtAddr(addr uint64) *Block {
	if blk, ok := b.blocks[addr]; ok {
		return blk
	}
	blk := &Block{Start: addr}
	b.blocks[addr] = blk
	b.edges[addr] = make(map[uint64]bool)
	b.ordered = append(b.ordered, addr)
	return blk
}

func (b *oracleBuilder) addEdge(from, to *Block) {
	b.edges[from.Start][to.Start] = true
}

// oracleConnectBlocks is Algorithm 2: a single in-order sweep that creates blocks
// at leaders, links fall-through successors, and links branch targets.
func oracleConnectBlocks(p *asm.Program) *CFG {
	b := &oracleBuilder{
		blocks: make(map[uint64]*Block),
		edges:  make(map[uint64]map[uint64]bool),
	}
	var currBlock *Block
	for _, inst := range p.Insts {
		if inst.Start {
			currBlock = b.getBlockAtAddr(inst.Addr)
		}
		if currBlock == nil {
			// Defensive: cannot happen after TagProgram (entry is a
			// leader), but keeps the sweep total.
			currBlock = b.getBlockAtAddr(inst.Addr)
		}
		nextBlock := currBlock

		if nextInst := p.Next(inst); nextInst != nil {
			if inst.FallThrough && nextInst.Start {
				nextBlock = b.getBlockAtAddr(nextInst.Addr)
				b.addEdge(currBlock, nextBlock)
			}
		}

		if inst.HasBranch {
			target := b.getBlockAtAddr(inst.BranchTo)
			b.addEdge(currBlock, target)
		}

		currBlock.Insts = append(currBlock.Insts, inst)
		currBlock = nextBlock
	}
	return b.finish()
}

// finish orders blocks by start address, assigns dense IDs and materializes
// the edge structure.
func (b *oracleBuilder) finish() *CFG {
	sort.Slice(b.ordered, func(i, j int) bool { return b.ordered[i] < b.ordered[j] })
	blocks := make([]*Block, len(b.ordered))
	idOf := make(map[uint64]int, len(b.ordered))
	for i, addr := range b.ordered {
		blk := b.blocks[addr]
		blk.ID = i
		blocks[i] = blk
		idOf[addr] = i
	}
	g := graph.NewDirected(len(blocks))
	for from, tos := range b.edges {
		for to := range tos {
			g.AddEdge(idOf[from], idOf[to])
		}
	}
	return &CFG{Blocks: blocks, Graph: g}
}
