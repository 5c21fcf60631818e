// Package asm models x86-style disassembled programs: instructions with
// addresses, mnemonics and operands; the operation categories that back the
// block-level attributes of Table I; and the control-flow tagging visitor of
// Section IV-A / Algorithm 1. It plays the role IDA Pro's textual
// disassembly output plays in the paper — the CFG builder in internal/cfg
// consumes Programs produced here.
package asm

import (
	"strings"
	"unicode/utf8"
)

// Kind classifies an instruction's control-flow behaviour. It drives the
// first-pass tagging visitor (Algorithm 1 and its siblings).
type Kind int

// Control-flow kinds.
const (
	KindOther Kind = iota + 1
	KindConditionalJump
	KindUnconditionalJump
	KindCall
	KindReturn
	KindHalt
)

// Category classifies an instruction for the Table I attribute counters.
type Category int

// Table I attribute categories.
const (
	CatOther Category = iota + 1
	CatTransfer
	CatCall
	CatArithmetic
	CatCompare
	CatMov
	CatTermination
	CatDataDeclaration
)

// Instruction is one line of disassembly plus the control-flow tags computed
// by the first pass over the program (Section IV-A): start marks a block
// leader, branchTo the destination of a jump/call, fallThrough whether
// control continues to the next instruction, and ret whether the
// instruction terminates a function.
type Instruction struct {
	Addr     uint64
	Mnemonic string
	Operands []string
	Size     uint64 // bytes until the next instruction; used for fall-through

	// Tags assigned by the first pass (TagProgram).
	Start       bool
	HasBranch   bool
	BranchTo    uint64
	FallThrough bool
	Return      bool

	// What the text decides, counted once when the instruction enters a
	// Program (ParseString): kind 0 marks an instruction built
	// by hand, whose Kind, Category and NumericConstants read the text on
	// every call. Mnemonic and Operands must not change after that.
	kind   uint8
	cat    uint8
	consts int32
	// Positions in the owning Program's Insts: the instruction's own, and
	// with HasBranch its target's as TagProgram resolved it (−1: none). A
	// Program of 2³¹ instructions would take 8 GiB of text.
	index, target int32
}

// Kind returns the control-flow kind of the instruction.
func (in *Instruction) Kind() Kind {
	if in.kind != 0 {
		return Kind(in.kind)
	}
	return classify(in.Mnemonic).kind
}

// Category returns the Table I attribute category of the instruction.
func (in *Instruction) Category() Category {
	if in.kind != 0 {
		return Category(in.cat)
	}
	return classify(in.Mnemonic).cat
}

// NumericConstants counts numeric literal operands — the "# Numeric
// Constants" attribute of Table I. Memory operand displacements inside
// brackets are not counted; plain immediates (decimal, 0x-prefixed or
// trailing-h hex) are.
func (in *Instruction) NumericConstants() int {
	if in.kind != 0 {
		return int(in.consts)
	}
	return countNumericLiterals(in.Operands)
}

// DstAddr extracts the destination address of a jump or call instruction —
// the paper's findDstAddr helper. It returns false when the operand is not
// a resolvable address (e.g. an indirect jump through a register).
func (in *Instruction) DstAddr() (uint64, bool) {
	if len(in.Operands) == 0 {
		return 0, false
	}
	return parseAddr(in.Operands[0])
}

// BranchIndex returns the index in the Program of the instruction at
// BranchTo, as TagProgram resolved it, or −1 when the instruction has no
// branch or BranchTo is no instruction of the program (an external callee,
// or an address inside an instruction).
func (in *Instruction) BranchIndex() int {
	if !in.HasBranch {
		return -1
	}
	return int(in.target)
}

// class is everything a mnemonic alone decides about an instruction.
type class struct {
	kind Kind
	cat  Category
}

// classify is what a mnemonic decides.
func classify(mnemonic string) class { return classifyLower(lower(mnemonic)) }

// classifyLower is classify of a lower-case mnemonic, one switch: Go
// compiles it to a jump on the length and a binary search among the cases
// of that length, with no hashing.
func classifyLower(mnemonic string) class {
	switch mnemonic {
	case "jmp":
		return class{KindUnconditionalJump, CatTransfer}
	case "je", "jne", "jz", "jnz", "jg", "jge", "jl", "jle", "ja", "jae",
		"jb", "jbe", "jo", "jno", "js", "jns", "jp", "jnp", "jcxz", "jecxz":
		return class{KindConditionalJump, CatTransfer}
	case "loop", "loope", "loopne":
		return class{KindOther, CatTransfer}
	case "call":
		return class{KindCall, CatCall}
	case "add", "sub", "mul", "imul", "div", "idiv", "inc", "dec", "neg",
		"adc", "sbb", "shl", "shr", "sal", "sar", "rol", "ror", "xor",
		"and", "or", "not":
		return class{KindOther, CatArithmetic}
	case "cmp", "test":
		return class{KindOther, CatCompare}
	case "mov", "movzx", "movsx", "lea", "xchg", "movs", "movsb", "movsd":
		return class{KindOther, CatMov}
	case "ret", "retn", "retf", "iret":
		return class{KindReturn, CatTermination}
	case "hlt":
		return class{KindHalt, CatTermination}
	case "leave":
		return class{KindOther, CatTermination}
	case "db", "dw", "dd", "dq", "align":
		return class{KindOther, CatDataDeclaration}
	}
	return class{KindOther, CatOther}
}

// lower is strings.ToLower, called only when s holds a byte it could change.
func lower(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' {
			return strings.ToLower(s)
		}
	}
	return s
}

func countNumericLiterals(operands []string) int {
	count := 0
	for _, op := range operands {
		if isNumericLiteral(op) {
			count++
		}
	}
	return count
}

// isNumericLiteral reports whether an operand is a bare numeric constant.
func isNumericLiteral(op string) bool {
	op = strings.TrimSpace(op)
	if op == "" || op[0] == '[' {
		return false
	}
	_, ok := parseNumber(op)
	return ok
}

// parseAddr parses decimal, 0x-prefixed hex, and IDA-style trailing-h hex
// numbers. The trailing-h form needs a leading decimal digit, as in IDA and
// MASM (0Ah): without one the token is a name — ah, bh, ch and dh are
// registers.
func parseAddr(s string) (uint64, bool) {
	return parseNumber(strings.TrimSpace(s))
}

// parseNumber is parseAddr over text with no blanks around it.
func parseNumber(s string) (uint64, bool) {
	switch n := len(s); {
	case n >= 2 && s[0] == '0' && s[1]|0x20 == 'x':
		return parseHex(s[2:])
	case n > 1 && s[n-1]|0x20 == 'h':
		if s[0] < '0' || s[0] > '9' {
			return 0, false
		}
		return parseHex(s[:n-1])
	default:
		return parseDecimal(s)
	}
}

// parseHex is strconv.ParseUint(s, 16, 64) without the error value.
func parseHex(s string) (uint64, bool) {
	if s == "" {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		var d byte
		switch c, l := s[i], s[i]|0x20; {
		case '0' <= c && c <= '9':
			d = c - '0'
		case 'a' <= l && l <= 'f':
			d = l - 'a' + 10
		default:
			return 0, false
		}
		if v>>60 != 0 {
			return 0, false
		}
		v = v<<4 | uint64(d)
	}
	return v, true
}

// parseDecimal is strconv.ParseUint(s, 10, 64) without the error value.
func parseDecimal(s string) (uint64, bool) {
	if s == "" {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (1<<64-1-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}
