package asm

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/obs"
)

// Program is the pre-processed form of Section IV-A: a one-to-one mapping
// from sorted addresses to instructions, P : Z⁺ → I. Instructions are held
// in strictly ascending address order, so an address resolves to its index
// by binary search.
type Program struct {
	Insts []*Instruction
}

// NewProgram builds a Program from instructions, sorting them by address and
// deriving each instruction's Size from the gap to its successor (the final
// instruction gets size 1). Duplicate addresses are rejected.
func NewProgram(insts []*Instruction) (*Program, error) {
	owned := make([]*Instruction, len(insts))
	copy(owned, insts)
	for _, in := range owned {
		in.store()
	}
	return newProgram(owned)
}

// newProgram is NewProgram over a slice it may reorder and keep, holding
// instructions whose text is already counted.
func newProgram(insts []*Instruction) (*Program, error) {
	ascending := true
	for i := 1; i < len(insts) && ascending; i++ {
		ascending = insts[i].Addr > insts[i-1].Addr
	}
	if !ascending {
		slices.SortFunc(insts, func(a, b *Instruction) int { return cmp.Compare(a.Addr, b.Addr) })
		for i := 1; i < len(insts); i++ {
			if insts[i].Addr == insts[i-1].Addr {
				return nil, fmt.Errorf("asm: duplicate address %#x", insts[i].Addr)
			}
		}
	}
	for i, in := range insts {
		in.index = i
		in.Size = 1
		if i > 0 {
			insts[i-1].Size = in.Addr - insts[i-1].Addr
		}
	}
	return &Program{Insts: insts}, nil
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Insts) }

// IndexOf returns the index of the instruction at addr, or -1.
func (p *Program) IndexOf(addr uint64) int {
	i, found := slices.BinarySearchFunc(p.Insts, addr, func(in *Instruction, addr uint64) int {
		return cmp.Compare(in.Addr, addr)
	})
	if !found {
		return -1
	}
	return i
}

// At returns the instruction at addr, or nil.
func (p *Program) At(addr uint64) *Instruction {
	if i := p.IndexOf(addr); i >= 0 {
		return p.Insts[i]
	}
	return nil
}

// Next returns the instruction following inst in address order — the
// paper's getNextInst(P, inst) helper — or nil at the end of the program.
func (p *Program) Next(inst *Instruction) *Instruction {
	i := inst.index
	if i >= len(p.Insts) || p.Insts[i] != inst {
		// Not one of p's own instructions: go by its address.
		if i = p.IndexOf(inst.Addr); i < 0 {
			return nil
		}
	}
	if i+1 >= len(p.Insts) {
		return nil
	}
	return p.Insts[i+1]
}

// ParseString reads disassembly text into a Program. The accepted format is
// one instruction per line:
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
// starting with ';' or '#', inline ';' comments, and label lines ("name:",
// with or without a comment after it) are skipped/stripped. Operands are
// comma-separated.
//
// The Program aliases s: a mnemonic or operand is a substring of it unless
// it had to be lower-cased or have its blanks collapsed, so the Program
// keeps all of s reachable. Every Instruction lives in one slab and every
// Operands slice in one other, both sized before the walk from the number of
// lines and commas in s.
func ParseString(s string) (*Program, error) {
	defer obs.TimeStage(obs.StageASMParse)()
	// An instruction ends a line and is at least "0 a\n" long; it has at most
	// one operand more than its line has commas.
	maxInsts := min(strings.Count(s, "\n")+1, len(s)/4+1)
	slab := make([]Instruction, 0, maxInsts)
	insts := make([]*Instruction, 0, maxInsts)
	operands := make([]string, 0, strings.Count(s, ",")+maxInsts)

	for lineNo := 1; s != ""; lineNo++ {
		var line string
		line, s, _ = strings.Cut(s, "\n")
		line, _, _ = strings.Cut(line, ";")
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		if line[len(line)-1] == ':' && !strings.ContainsAny(line, " \t") {
			continue // label line
		}
		addrText, rest := cutField(line)
		mnemonic, rest := cutField(rest)
		if mnemonic == "" {
			return nil, fmt.Errorf("asm: line %d: want 'ADDR MNEMONIC [operands]', got %q", lineNo, line)
		}
		addr, ok := parseLineAddr(addrText)
		if !ok {
			return nil, fmt.Errorf("asm: line %d: %w", lineNo, badAddress(addrText))
		}
		first := len(operands)
		for rest != "" {
			var op string
			op, rest, _ = strings.Cut(rest, ",")
			if op = collapseBlanks(strings.TrimSpace(op)); op != "" {
				operands = append(operands, op)
			}
		}
		slab = append(slab, Instruction{Addr: addr, Mnemonic: lower(mnemonic)})
		in := &slab[len(slab)-1]
		if n := len(operands); n > first {
			in.Operands = operands[first:n:n]
		}
		in.store()
		insts = append(insts, in)
	}
	return newProgram(insts)
}

// blankAt returns the width in bytes of the blank (unicode.IsSpace) rune
// that starts at s[i], or 0 when a blank does not start there.
func blankAt(s string, i int) int {
	if c := s[i]; c < utf8.RuneSelf {
		return int(asciiBlank[c])
	}
	return wideBlankAt(s[i:])
}

// asciiBlank holds 1 at the six ASCII bytes unicode.IsSpace accepts.
var asciiBlank = [utf8.RuneSelf]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

func wideBlankAt(s string) int {
	if r, w := utf8.DecodeRuneInString(s); unicode.IsSpace(r) {
		return w
	}
	return 0
}

// cutField splits s at its first run of blanks: the text before the run and
// the text after it.
func cutField(s string) (field, rest string) {
	end := 0
	for end < len(s) && blankAt(s, end) == 0 {
		end++
	}
	next := end
	for next < len(s) {
		w := blankAt(s, next)
		if w == 0 {
			break
		}
		next += w
	}
	return s[:end], s[next:]
}

// collapseBlanks returns s, which neither starts nor ends with a blank, with
// every run of blanks replaced by one space: s itself unless it holds a run
// that is not already one.
func collapseBlanks(s string) string {
	for i := 0; i < len(s); i++ {
		if blankAt(s, i) == 0 {
			continue
		}
		if s[i] != ' ' || blankAt(s, i+1) != 0 {
			return strings.Join(strings.Fields(s), " ")
		}
	}
	return s
}

// parseLineAddr parses a line's address field: hexadecimal, optionally
// 0x-prefixed, after an optional IDA section prefix (".text:00401000").
func parseLineAddr(field string) (uint64, bool) {
	if v, ok := parseHex(field); ok {
		return v, true // bare digits, the common case
	}
	if i := strings.LastIndexByte(field, ':'); i >= 0 {
		field = field[i+1:]
	}
	if len(field) >= 2 && field[0] == '0' && field[1]|0x20 == 'x' {
		field = field[2:]
	}
	return parseHex(field)
}

// badAddress is the error for a field parseLineAddr refused; only here does
// the refusal get strconv's reason (syntax or range) for it.
func badAddress(field string) error {
	text := strings.ToLower(field)
	if i := strings.LastIndex(text, ":"); i >= 0 {
		text = text[i+1:]
	}
	_, err := strconv.ParseUint(strings.TrimPrefix(text, "0x"), 16, 64)
	return fmt.Errorf("bad address %q: %w", field, err)
}

// Format renders the program back to parseable text.
func (p *Program) Format(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, in := range p.Insts {
		if _, err := fmt.Fprintf(bw, "%08x  %s", in.Addr, in.Mnemonic); err != nil {
			return err
		}
		if len(in.Operands) > 0 {
			if _, err := fmt.Fprintf(bw, " %s", strings.Join(in.Operands, ", ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// String renders the program as text.
func (p *Program) String() string {
	var sb strings.Builder
	_ = p.Format(&sb)
	return sb.String()
}
