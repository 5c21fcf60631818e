package asm

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math/bits"
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

// newProgram builds a Program from instructions whose text is already
// counted, sorting them by address (it may reorder and keep the slice) and
// deriving each instruction's Size from the gap to its successor (the final
// instruction gets size 1). Duplicate addresses are rejected.
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
		in.index = int32(i)
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
	lo, hi := 0, len(p.Insts)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); p.Insts[m].Addr < addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(p.Insts) && p.Insts[lo].Addr == addr {
		return lo
	}
	return -1
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
	i := int(inst.index)
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
// The walk visits each byte once: a line's end, its comment, its trimmed
// ends, the label test, the address, the mnemonic and the operands all come
// out of one forward scan, and each instruction's size and index are set as
// the next one arrives. The Program aliases s: a mnemonic or operand is a
// substring of it unless it had to be lower-cased or have its blanks
// collapsed, so the Program keeps all of s reachable. Every Instruction
// lives in one slab and every Operands slice in one other; both grow with
// what the walk finds (see grow), not with what s could hold.
func ParseString(s string) (*Program, error) {
	defer obs.TimeStage(obs.StageASMParse)()
	var (
		slab      []Instruction
		operands  []string
		moved     bool // the operand slab was reallocated: re-point every Operands at the end
		ascending = true
	)
	for i, lineNo := 0, 1; i < len(s); lineNo++ {
		start, _ := skipBlanks(s, i)
		if start == len(s) {
			break
		}
		switch s[start] {
		case '\n':
			i = start + 1
			continue
		case ';', '#':
			i = nextLine(s, start)
			continue
		}

		// The address field, its hex digits summed as they pass.
		var addr uint64
		hex := true
		addrEnd := start
		for ; addrEnd < len(s); addrEnd++ {
			d := hexDigit[s[addrEnd]]
			if d > 0xf {
				break
			}
			hex = hex && addr>>60 == 0
			addr = addr<<4 | uint64(d)
		}
		if e := fieldEnd(s, addrEnd); e != addrEnd {
			addrEnd, hex = e, false
		}

		// The mnemonic. end is the end of the line's last non-blank so
		// far, spaceTab whether a blank run before it held a space or a
		// tab: the label test reads both.
		end, spaceTab := addrEnd, false
		mnemStart, st := skipBlanks(s, addrEnd)
		mnemEnd := fieldEnd(s, mnemStart)
		if mnemEnd > mnemStart {
			end, spaceTab = mnemEnd, st
		}

		// The operands, one per pass of the outer loop. opStart is the
		// operand's first non-blank (−1 before it), opEnd the end of its
		// last; run and single describe the blank run since then, and
		// collapse records a run inside the operand that is not exactly
		// one space. pending records a space or tab in the current run.
		first, consts := len(operands), 0
		j, pending := skipBlanks(s, mnemEnd)
		for mnemEnd > mnemStart && j < len(s) && byteClass[s[j]] != bEnd {
			opStart, opEnd, run, single, collapse := -1, 0, 0, false, false
			for j < len(s) {
				k := byteClass[s[j]]
				w, next := 0, 0 // the width of a blank at j, or the end of the non-blank bytes there
				switch {
				case k == bOther:
					next = runEnd(s, j+1)
				case k == bBlank:
					w = 1
				case k == bWide:
					if w = wideBlankAt(s[j:]); w == 0 {
						next = j + 1
					}
				}
				if next > 0 {
					if opStart < 0 {
						opStart = j
					} else if run > 0 && (run > 1 || !single) {
						collapse = true
					}
					j, run, opEnd, end = next, 0, next, next
					spaceTab, pending = spaceTab || pending, false
					continue
				}
				if w == 0 {
					break // a comma or the end of the line's text
				}
				pending = pending || s[j] == ' ' || s[j] == '\t'
				if opStart >= 0 {
					single = run == 0 && s[j] == ' '
					run += w
				}
				j += w
			}
			if opStart >= 0 {
				op := s[opStart:opEnd]
				if collapse {
					op = strings.Join(strings.Fields(op), " ")
				}
				if op[0] != '[' {
					if _, ok := parseNumber(op); ok {
						consts++
					}
				}
				if len(operands) == cap(operands) {
					rest := s[opEnd:]
					moved = moved || len(operands) > 0
					operands = grow(operands, strings.Count(rest, ",")+strings.Count(rest, "\n")+1)
				}
				operands = append(operands, op)
			}
			if j == len(s) || s[j] != ',' {
				break
			}
			spaceTab, pending = spaceTab || pending, false
			j++
			end = j
		}
		i = nextLine(s, j)

		if s[end-1] == ':' && !spaceTab {
			operands = operands[:first] // label line
			continue
		}
		if mnemEnd == mnemStart {
			return nil, fmt.Errorf("asm: line %d: want 'ADDR MNEMONIC [operands]', got %q", lineNo, s[start:end])
		}
		if !hex {
			var ok bool
			if addr, ok = parseLineAddr(s[start:addrEnd]); !ok {
				return nil, fmt.Errorf("asm: line %d: %w", lineNo, badAddress(s[start:addrEnd]))
			}
		}
		mnemonic := lower(s[mnemStart:mnemEnd])
		n := len(slab)
		if n == cap(slab) {
			slab = grow(slab, strings.Count(s[start:], "\n")+1)
		}
		if n > 0 {
			if prev := &slab[n-1]; addr > prev.Addr {
				prev.Size = addr - prev.Addr
			} else {
				ascending = false // newProgram sorts, and sizes again
			}
		}
		slab = slab[:n+1]
		in, c := &slab[n], classifyLower(mnemonic)
		in.Addr, in.Mnemonic, in.Size, in.index = addr, mnemonic, 1, int32(n)
		in.kind, in.cat, in.consts = uint8(c.kind), uint8(c.cat), int32(consts)
		if k := len(operands); k > first {
			in.Operands = operands[first:k:k]
		}
	}

	if moved {
		off := 0
		for k := range slab {
			if n := len(slab[k].Operands); n > 0 {
				slab[k].Operands = operands[off : off+n : off+n]
				off += n
			}
		}
	}
	insts := make([]*Instruction, len(slab))
	for k := range slab {
		insts[k] = &slab[k]
	}
	if !ascending {
		return newProgram(insts)
	}
	return &Program{Insts: insts}, nil
}

// grow returns slab with room for more items, at most most more: all of
// them while the slab holds fewer than firstRoom, and never more than it
// already holds after that. So a listing allocates for the instructions
// and operands it holds — at most twice them, or a constant — and a body
// of newlines or commas, which holds none, allocates nothing.
func grow[T any](slab []T, most int) []T {
	n := len(slab)
	bigger := make([]T, n, n+min(most, max(n, firstRoom)))
	copy(bigger, slab)
	return bigger
}

// firstRoom bounds the room a slab makes before it holds as many items:
// 4 096 instructions (≈ 350 KB) or operands (64 KB), enough for the
// listings the benchmark serves in one step.
const firstRoom = 4096

// Byte classes of the walk, for bytes below 0x80 and for the lead bytes of
// wider runes.
const (
	bOther = 0
	bBlank = 1 << iota // '\t', '\v', '\f', '\r', ' ': unicode.IsSpace's ASCII bytes but '\n'
	bEnd               // '\n' and ';': the end of a line's text
	bComma             // ','
	bWide              // 0x80 and above: a rune to decode
)

var byteClass = func() (t [256]uint8) {
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = bWide
	}
	for _, c := range "\t\v\f\r " {
		t[c] = bBlank
	}
	t['\n'], t[';'], t[','] = bEnd, bEnd, bComma
	return t
}()

// hexDigit maps a byte to its hexadecimal value, or 0xff.
var hexDigit = func() (t [256]uint8) {
	for c := range t {
		t[c] = 0xff
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = uint8(c - '0')
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c], t[c-'a'+'A'] = uint8(c-'a'+10), uint8(c-'a'+10)
	}
	return t
}()

// skipBlanks returns the first index at or after i that does not start a
// blank (unicode.IsSpace) rune other than '\n', and whether the blanks
// before it held a space or a tab.
func skipBlanks(s string, i int) (int, bool) {
	if i+1 < len(s) && s[i] == ' ' && byteClass[s[i+1]] == bOther {
		return i + 1, true // one space, the common case, where it is inlined
	}
	return skipBlankRun(s, i)
}

func skipBlankRun(s string, i int) (int, bool) {
	spaceTab := false
	for i < len(s) {
		switch byteClass[s[i]] {
		case bBlank:
			spaceTab = spaceTab || s[i] == ' ' || s[i] == '\t'
			i++
		case bWide:
			w := wideBlankAt(s[i:])
			if w == 0 {
				return i, spaceTab
			}
			i += w
		default:
			return i, spaceTab
		}
	}
	return i, spaceTab
}

// fieldEnd returns the first index at or after i that starts a blank or
// ends the line's text.
func fieldEnd(s string, i int) int {
	if i < len(s) && byteClass[s[i]]&(bBlank|bEnd) != 0 {
		return i
	}
	return fieldEndAfter(s, i)
}

func fieldEndAfter(s string, i int) int {
	for i = runEnd(s, i); i < len(s); i = runEnd(s, i+1) {
		if k := byteClass[s[i]]; k&(bBlank|bEnd) != 0 || k == bWide && wideBlankAt(s[i:]) > 0 {
			break
		}
	}
	return i
}

// runEnd returns the end of the run of bOther bytes that starts at i. It
// reads eight bytes at a time while it can: a word with no byte below
// 0x21, above 0x7f, ';' or ',' is all bOther, and the lowest byte that
// fails the test is the first one that may end the run (a control byte
// other than a blank does not: it is bOther too).
func runEnd(s string, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for i+8 <= len(s) {
		w := s[i : i+8]
		x := uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
			uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56
		semi, comma := x^';'*ones, x^','*ones
		m := ((x-0x21*ones)&^x | x | (semi-ones)&^semi | (comma-ones)&^comma) & highs
		if m == 0 {
			i += 8
			continue
		}
		i += bits.TrailingZeros64(m) >> 3
		if byteClass[s[i]] != bOther {
			return i
		}
		i++
	}
	for i < len(s) && byteClass[s[i]] == bOther {
		i++
	}
	return i
}

// nextLine returns the index after the first '\n' at or after i, or len(s).
func nextLine(s string, i int) int {
	if i < len(s) && s[i] == '\n' {
		return i + 1 // the common case, where it is inlined
	}
	return nextLineAfter(s, i)
}

func nextLineAfter(s string, i int) int {
	if k := strings.IndexByte(s[i:], '\n'); k >= 0 {
		return i + k + 1
	}
	return len(s)
}

func wideBlankAt(s string) int {
	if r, w := utf8.DecodeRuneInString(s); unicode.IsSpace(r) {
		return w
	}
	return 0
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
