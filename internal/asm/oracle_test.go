package asm

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The parser, program builder, classifiers and tagger as they stood at
// commit 7493e98, before the slab tokenizer replaced them: the oracle the
// differential tests hold the production code to. The code is the parent's
// with its names prefixed (methods of Instruction became functions, the
// Visitor dispatch a switch) and the stage timer dropped; the only two
// changes of behaviour are the bug fixes the production code got in the same
// commit, marked FIX 1 and FIX 2.

// Kind returns the control-flow kind of the instruction.
func oracleKind(in *Instruction) Kind {
	m := strings.ToLower(in.Mnemonic)
	switch {
	case m == "jmp":
		return KindUnconditionalJump
	case oracleConditionalJumps[m]:
		return KindConditionalJump
	case m == "call":
		return KindCall
	case m == "ret" || m == "retn" || m == "retf" || m == "iret":
		return KindReturn
	case m == "hlt":
		return KindHalt
	default:
		return KindOther
	}
}

// Category returns the Table I attribute category of the instruction.
func oracleCategory(in *Instruction) Category {
	m := strings.ToLower(in.Mnemonic)
	switch {
	case m == "jmp" || oracleConditionalJumps[m] || oracleLoopOps[m]:
		return CatTransfer
	case m == "call":
		return CatCall
	case oracleArithmeticOps[m]:
		return CatArithmetic
	case m == "cmp" || m == "test":
		return CatCompare
	case oracleMovOps[m]:
		return CatMov
	case m == "ret" || m == "retn" || m == "retf" || m == "iret" || m == "hlt" || m == "leave":
		return CatTermination
	case oracleDataOps[m]:
		return CatDataDeclaration
	default:
		return CatOther
	}
}

// NumericConstants counts numeric literal operands — the "# Numeric
// Constants" attribute of Table I. Memory operand displacements inside
// brackets are not counted; plain immediates (decimal, 0x-prefixed or
// trailing-h hex) are.
func oracleNumericConstants(in *Instruction) int {
	count := 0
	for _, op := range in.Operands {
		if oracleIsNumericLiteral(op) {
			count++
		}
	}
	return count
}

// DstAddr extracts the destination address of a jump or call instruction —
// the paper's findDstAddr helper. It returns false when the operand is not
// a resolvable address (e.g. an indirect jump through a register).
func oracleDstAddr(in *Instruction) (uint64, bool) {
	if len(in.Operands) == 0 {
		return 0, false
	}
	return oracleParseAddr(in.Operands[0])
}

var oracleConditionalJumps = map[string]bool{
	"je": true, "jne": true, "jz": true, "jnz": true, "jg": true, "jge": true,
	"jl": true, "jle": true, "ja": true, "jae": true, "jb": true, "jbe": true,
	"jo": true, "jno": true, "js": true, "jns": true, "jp": true, "jnp": true,
	"jcxz": true, "jecxz": true,
}

var oracleLoopOps = map[string]bool{
	"loop": true, "loope": true, "loopne": true,
}

var oracleArithmeticOps = map[string]bool{
	"add": true, "sub": true, "mul": true, "imul": true, "div": true,
	"idiv": true, "inc": true, "dec": true, "neg": true, "adc": true,
	"sbb": true, "shl": true, "shr": true, "sal": true, "sar": true,
	"rol": true, "ror": true, "xor": true, "and": true, "or": true,
	"not": true,
}

var oracleMovOps = map[string]bool{
	"mov": true, "movzx": true, "movsx": true, "lea": true, "xchg": true,
	"movs": true, "movsb": true, "movsd": true,
}

var oracleDataOps = map[string]bool{
	"db": true, "dw": true, "dd": true, "dq": true, "align": true,
}

// oracleIsNumericLiteral reports whether an operand is a bare numeric constant.
func oracleIsNumericLiteral(op string) bool {
	op = strings.TrimSpace(op)
	if op == "" || strings.HasPrefix(op, "[") {
		return false
	}
	_, ok := oracleParseAddr(op)
	return ok
}

// oracleParseAddr parses decimal, 0x-prefixed hex, and IDA-style trailing-h hex
// numbers.
func oracleParseAddr(s string) (uint64, bool) {
	s = strings.TrimSpace(strings.ToLower(s))
	switch {
	case strings.HasPrefix(s, "0x"):
		v, err := strconv.ParseUint(s[2:], 16, 64)
		return v, err == nil
	case strings.HasSuffix(s, "h") && len(s) > 1:
		if s[0] < '0' || s[0] > '9' {
			return 0, false // FIX 1: ah, bh, ch, dh are registers
		}
		v, err := strconv.ParseUint(s[:len(s)-1], 16, 64)
		return v, err == nil
	default:
		v, err := strconv.ParseUint(s, 10, 64)
		return v, err == nil
	}
}

// Program is the pre-processed form of Section IV-A: a one-to-one mapping
// from sorted addresses to instructions, P : Z⁺ → I. Instructions are held
// in address order; ByAddr resolves an address to its index.
type oracleProgram struct {
	Insts  []*Instruction
	byAddr map[uint64]int
}

// oracleNewProgram builds a Program from instructions, sorting them by address and
// deriving each instruction's Size from the gap to its successor (the final
// instruction gets size 1). Duplicate addresses are rejected.
func oracleNewProgram(insts []*Instruction) (*oracleProgram, error) {
	sorted := make([]*Instruction, len(insts))
	copy(sorted, insts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Addr < sorted[j].Addr })
	byAddr := make(map[uint64]int, len(sorted))
	for i, in := range sorted {
		if _, dup := byAddr[in.Addr]; dup {
			return nil, fmt.Errorf("asm: duplicate address %#x", in.Addr)
		}
		byAddr[in.Addr] = i
		if i > 0 {
			prev := sorted[i-1]
			prev.Size = in.Addr - prev.Addr
		}
	}
	if len(sorted) > 0 {
		sorted[len(sorted)-1].Size = 1
	}
	return &oracleProgram{Insts: sorted, byAddr: byAddr}, nil
}

// IndexOf returns the index of the instruction at addr, or -1.
func (p *oracleProgram) IndexOf(addr uint64) int {
	if i, ok := p.byAddr[addr]; ok {
		return i
	}
	return -1
}

// At returns the instruction at addr, or nil.
func (p *oracleProgram) At(addr uint64) *Instruction {
	if i := p.IndexOf(addr); i >= 0 {
		return p.Insts[i]
	}
	return nil
}

// Next returns the instruction following inst in address order — the
// paper's getNextInst(P, inst) helper — or nil at the end of the program.
func (p *oracleProgram) Next(inst *Instruction) *Instruction {
	i := p.IndexOf(inst.Addr)
	if i < 0 || i+1 >= len(p.Insts) {
		return nil
	}
	return p.Insts[i+1]
}

// Parse reads disassembly text into a Program. The accepted format is one
// instruction per line:
//
//	00401000  push ebp
//	00401001  mov  ebp, esp
//	00401003  jnz  0x401010
//
// IDA-style section-prefixed addresses — the format of the Microsoft
// challenge .asm files the paper consumes — are accepted too:
//
//	.text:00401000  push ebp
//	.text:00401001  mov  ebp, esp
//
// Addresses are hexadecimal (optionally 0x-prefixed). Blank lines, lines
// starting with ';' or '#', inline ';' comments, and label lines ("name:")
// are skipped/stripped. Operands are comma-separated.
func oracleParse(r io.Reader) (*oracleProgram, error) {
	var insts []*Instruction
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, ";") || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.Index(line, ";"); i >= 0 {
			line = strings.TrimSpace(line[:i]) // FIX 2: the comment goes first
		}
		if strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t") {
			continue // label line
		}
		inst, err := oracleParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("asm: line %d: %w", lineNo, err)
		}
		insts = append(insts, inst)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("asm: read: %w", err)
	}
	return oracleNewProgram(insts)
}

// ParseString is Parse over an in-memory string.
func oracleParseString(s string) (*oracleProgram, error) {
	return oracleParse(strings.NewReader(s))
}

func oracleParseLine(line string) (*Instruction, error) {
	// Strip inline comments.
	if i := strings.Index(line, ";"); i >= 0 {
		line = strings.TrimSpace(line[:i])
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil, fmt.Errorf("want 'ADDR MNEMONIC [operands]', got %q", line)
	}
	addrText := strings.ToLower(fields[0])
	// IDA-style section prefix: ".text:00401000".
	if i := strings.LastIndex(addrText, ":"); i >= 0 {
		addrText = addrText[i+1:]
	}
	addrText = strings.TrimPrefix(addrText, "0x")
	addr, err := strconv.ParseUint(addrText, 16, 64)
	if err != nil {
		return nil, fmt.Errorf("bad address %q: %w", fields[0], err)
	}
	mnemonic := strings.ToLower(fields[1])
	var operands []string
	if len(fields) > 2 {
		rest := strings.Join(fields[2:], " ")
		for _, op := range strings.Split(rest, ",") {
			op = strings.TrimSpace(op)
			if op != "" {
				operands = append(operands, op)
			}
		}
	}
	return &Instruction{Addr: addr, Mnemonic: mnemonic, Operands: operands}, nil
}

type oracleTagger struct{}

// VisitConditionalJump implements Algorithm 1: the jump branches to its
// target (whose instruction becomes a leader) and falls through to the next
// instruction (which also becomes a leader).
func (oracleTagger) VisitConditionalJump(p *oracleProgram, cj *Instruction) {
	if dst, ok := oracleDstAddr(cj); ok {
		cj.HasBranch = true
		cj.BranchTo = dst
		if t := p.At(dst); t != nil {
			t.Start = true
		}
	}
	cj.FallThrough = true
	if next := p.At(cj.Addr + cj.Size); next != nil {
		next.Start = true
	}
}

// VisitUnconditionalJump branches without falling through; the next
// instruction still begins a fresh block.
func (oracleTagger) VisitUnconditionalJump(p *oracleProgram, j *Instruction) {
	if dst, ok := oracleDstAddr(j); ok {
		j.HasBranch = true
		j.BranchTo = dst
		if t := p.At(dst); t != nil {
			t.Start = true
		}
	}
	j.FallThrough = false
	if next := p.Next(j); next != nil {
		next.Start = true
	}
}

// VisitCall records the call edge and falls through to the next instruction
// (the return site), which begins a new block.
func (oracleTagger) VisitCall(p *oracleProgram, c *Instruction) {
	if dst, ok := oracleDstAddr(c); ok {
		c.HasBranch = true
		c.BranchTo = dst
		if t := p.At(dst); t != nil {
			t.Start = true
		}
	}
	c.FallThrough = true
	if next := p.At(c.Addr + c.Size); next != nil {
		next.Start = true
	}
}

// VisitReturn terminates the flow: no fall-through, and whatever follows
// starts a new block.
func (oracleTagger) VisitReturn(p *oracleProgram, r *Instruction) {
	r.Return = true
	r.FallThrough = false
	if next := p.Next(r); next != nil {
		next.Start = true
	}
}

// VisitHalt behaves like a return for flow purposes.
func (oracleTagger) VisitHalt(p *oracleProgram, h *Instruction) {
	h.Return = true
	h.FallThrough = false
	if next := p.Next(h); next != nil {
		next.Start = true
	}
}

// VisitDefault: ordinary instructions simply fall through.
func (oracleTagger) VisitDefault(_ *oracleProgram, in *Instruction) {
	in.FallThrough = true
}

// TagProgram runs the first pass over the whole program: the entry
// instruction is marked as a leader and every instruction is dispatched
// through the Tagger visitor.
func oracleTagProgram(p *oracleProgram) {
	if len(p.Insts) == 0 {
		return
	}
	p.Insts[0].Start = true
	var tagger oracleTagger
	for _, inst := range p.Insts {
		switch oracleKind(inst) { // the parent's Accept
		case KindConditionalJump:
			tagger.VisitConditionalJump(p, inst)
		case KindUnconditionalJump:
			tagger.VisitUnconditionalJump(p, inst)
		case KindCall:
			tagger.VisitCall(p, inst)
		case KindReturn:
			tagger.VisitReturn(p, inst)
		case KindHalt:
			tagger.VisitHalt(p, inst)
		default:
			tagger.VisitDefault(p, inst)
		}
	}
}
