package asm

// Visitor receives one callback per control-flow kind — the paper's
// "if-else free instruction tagging" visitor pattern (Section IV-A). The
// program and the instruction's index are supplied so the visitor can tag
// neighbours (e.g. mark the fall-through successor as a block leader).
type Visitor interface {
	VisitConditionalJump(p *Program, inst *Instruction)
	VisitUnconditionalJump(p *Program, inst *Instruction)
	VisitCall(p *Program, inst *Instruction)
	VisitReturn(p *Program, inst *Instruction)
	VisitHalt(p *Program, inst *Instruction)
	VisitDefault(p *Program, inst *Instruction)
}

// Accept dispatches inst to the matching visitor method.
func Accept(v Visitor, p *Program, inst *Instruction) {
	switch inst.Kind() {
	case KindConditionalJump:
		v.VisitConditionalJump(p, inst)
	case KindUnconditionalJump:
		v.VisitUnconditionalJump(p, inst)
	case KindCall:
		v.VisitCall(p, inst)
	case KindReturn:
		v.VisitReturn(p, inst)
	case KindHalt:
		v.VisitHalt(p, inst)
	default:
		v.VisitDefault(p, inst)
	}
}

// Tagger is the first-pass visitor: it assigns the {start, branchTo,
// fallThrough, return} tags consumed by the second-pass block builder.
// Algorithm 1 of the paper is VisitConditionalJump.
type Tagger struct{}

// VisitConditionalJump implements Algorithm 1: the jump branches to its
// target (whose instruction becomes a leader) and falls through to the next
// instruction (which also becomes a leader).
func (Tagger) VisitConditionalJump(p *Program, cj *Instruction) {
	branch(p, cj)
	cj.FallThrough = true
	leadNext(p, cj)
}

// VisitUnconditionalJump branches without falling through; the next
// instruction still begins a fresh block.
func (Tagger) VisitUnconditionalJump(p *Program, j *Instruction) {
	branch(p, j)
	j.FallThrough = false
	leadNext(p, j)
}

// VisitCall records the call edge and falls through to the next instruction
// (the return site), which begins a new block.
func (Tagger) VisitCall(p *Program, c *Instruction) {
	branch(p, c)
	c.FallThrough = true
	leadNext(p, c)
}

// VisitReturn terminates the flow: no fall-through, and whatever follows
// starts a new block.
func (Tagger) VisitReturn(p *Program, r *Instruction) {
	r.Return = true
	r.FallThrough = false
	leadNext(p, r)
}

// VisitHalt behaves like a return for flow purposes.
func (Tagger) VisitHalt(p *Program, h *Instruction) {
	h.Return = true
	h.FallThrough = false
	leadNext(p, h)
}

// VisitDefault: ordinary instructions simply fall through.
func (Tagger) VisitDefault(_ *Program, in *Instruction) {
	in.FallThrough = true
}

// branch tags in's branch to the address its operand names, if it names
// one, and makes the instruction there a leader. The address is resolved
// to an index once, here, and kept for the block builder (BranchIndex).
func branch(p *Program, in *Instruction) {
	dst, ok := in.DstAddr()
	if !ok {
		return
	}
	in.HasBranch = true
	in.BranchTo = dst
	in.target = int32(p.IndexOf(dst))
	if in.target >= 0 {
		p.Insts[in.target].Start = true
	}
}

// leadNext makes the instruction after in a leader. It is the one at
// in.Addr + in.Size, since Size is the gap to it.
func leadNext(p *Program, in *Instruction) {
	if next := p.Next(in); next != nil {
		next.Start = true
	}
}

var _ Visitor = Tagger{}

// TagProgram runs the first pass over the whole program: the entry
// instruction is marked as a leader and every instruction is dispatched
// through the Tagger visitor.
func TagProgram(p *Program) {
	if p.Len() == 0 {
		return
	}
	p.Insts[0].Start = true
	var tagger Tagger
	for _, inst := range p.Insts {
		Accept(tagger, p, inst)
	}
}
