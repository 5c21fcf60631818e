package asm_test

import (
	"bufio"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/malgen"
)

// FuzzParse hammers the disassembly parser — the first stage of the
// pipeline and the one fed attacker-controlled bytes in the service's
// /v1/samples and /v1/predict endpoints. Parse must never panic; on success
// the Program invariants must hold: addresses strictly increasing and
// unique, every instruction resolvable through IndexOf/At/Next, sizes
// derived from address gaps, and the round-trip through Format parseable.
//
// It is differential too: the parser, the classify-once table and the
// tagger must agree with the parent commit's code (oracle_test.go) on every
// input — the same accept/reject, the same error text (line number and
// offending token), and per instruction the same address, mnemonic,
// operands, size, kind, category, constant count and first-pass tags.
func FuzzParse(f *testing.F) {
	// Seed corpus: realistic listings from the synthetic generator (one per
	// family shape class), plus hand-written edge cases.
	for _, seed := range []int64{1, 2, 3} {
		prof := malgen.MSKProfileFor(int(seed) % 3)
		f.Add(malgen.GenerateProgram(rand.New(rand.NewSource(seed)), prof))
	}
	f.Add("00401000 push ebp\n00401001 mov ebp, esp\n00401003 ret")
	f.Add(".text:00401000 push ebp\n.text:00401001 jnz 0x401000")
	f.Add("; comment only\n\n# another\nlabel:\n")
	f.Add("00401000 mov eax, [ebp+8] ; trailing comment")
	f.Add("zzzz not an address")
	f.Add("00401000")
	f.Add("00401000 jmp 0xffffffffffffffff")
	f.Add("0x1 nop\n0x1 nop") // duplicate address
	f.Add(strings.Repeat("00401000 nop\n", 3))
	// IDA-shaped labels: a comment or padding after the colon.
	f.Add("loc_401000:   ; CODE XREF: sub_401000+12\n.text:00401000 retn")
	f.Add("start: ; entry\n00401000 nop\nname;x:\n")
	// 8-bit registers are not trailing-h constants; 0Ah is.
	f.Add("00401000 mov ah, 1\n00401002 add dh, bh\n00401004 jmp ch\n00401006 mov al, 0Ah\n00401008 jmp 0FFh")
	// The same listing mangled the ways real exports differ: case, tabs,
	// CRLF, section prefixes, doubled and non-ASCII blanks.
	listing := malgen.GenerateProgram(rand.New(rand.NewSource(4)), malgen.MSKProfileFor(1))
	f.Add(strings.ToUpper(listing))
	f.Add(strings.ReplaceAll(listing, " ", "\t"))
	f.Add(strings.ReplaceAll(listing, "\n", "\r\n"))
	f.Add(".text:" + strings.ReplaceAll(listing, "\n", "\n.text:"))
	f.Add(strings.ReplaceAll(listing, " ", "  "))
	f.Add(strings.ReplaceAll(listing, ", ", ",\u00a0"))
	f.Add("00401000\u2003MOV\u0085dword  ptr\t[eax] ,\v0x1F, ,\n00401007 j\u00e9 \xff")
	f.Add("00401010 ret\n00401000 nop\n0x00401005 nop") // out of order
	f.Add("ffffffffffffffff0 nop\n.text:zz nop")        // range, then syntax

	f.Fuzz(func(t *testing.T, text string) {
		p, err := asm.ParseString(text)
		diffOracle(t, text, p, err)
		if err != nil {
			return // rejecting malformed input is fine; panicking is not
		}
		var prev *asm.Instruction
		for i, inst := range p.Insts {
			if prev != nil {
				if inst.Addr <= prev.Addr {
					t.Fatalf("addresses not strictly increasing: %#x after %#x", inst.Addr, prev.Addr)
				}
				if prev.Size != inst.Addr-prev.Addr {
					t.Fatalf("size of %#x is %d, want gap %d", prev.Addr, prev.Size, inst.Addr-prev.Addr)
				}
			}
			if got := p.IndexOf(inst.Addr); got != i {
				t.Fatalf("IndexOf(%#x) = %d, want %d", inst.Addr, got, i)
			}
			if p.At(inst.Addr) != inst {
				t.Fatalf("At(%#x) did not resolve to instruction %d", inst.Addr, i)
			}
			next := p.Next(inst)
			if i+1 < p.Len() && next != p.Insts[i+1] {
				t.Fatalf("Next(%#x) skipped instruction %d", inst.Addr, i+1)
			}
			if i+1 == p.Len() && next != nil {
				t.Fatalf("Next of final instruction %#x is not nil", inst.Addr)
			}
			prev = inst
		}
		if p.Len() > 0 && p.Insts[p.Len()-1].Size != 1 {
			t.Fatalf("final instruction size %d, want 1", p.Insts[p.Len()-1].Size)
		}
		// Formatting a parsed program must itself parse, with identical
		// addresses and mnemonics (operand spacing may normalize).
		rt, err := asm.ParseString(p.String())
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\n%s", err, p.String())
		}
		if rt.Len() != p.Len() {
			t.Fatalf("round-trip has %d instructions, want %d", rt.Len(), p.Len())
		}
		for i, inst := range p.Insts {
			if rt.Insts[i].Addr != inst.Addr || rt.Insts[i].Mnemonic != inst.Mnemonic {
				t.Fatalf("round-trip instruction %d: %#x %s, want %#x %s",
					i, rt.Insts[i].Addr, rt.Insts[i].Mnemonic, inst.Addr, inst.Mnemonic)
			}
		}
	})
}

// diffOracle holds ParseString's result for text, and the tags TagProgram
// then assigns, to the parent commit's parser and tagger.
func diffOracle(t *testing.T, text string, got *asm.Program, gotErr error) {
	t.Helper()
	want, wantErr := asm.OracleParseString(text)
	if wantErr != nil && strings.Contains(wantErr.Error(), bufio.ErrTooLong.Error()) {
		return // the Scanner's 4 MiB line cap is the one check not kept
	}
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("error %v, oracle %v", gotErr, wantErr)
		}
		return
	}
	if got.Len() != len(want.Insts) {
		t.Fatalf("%d instructions, oracle %d", got.Len(), len(want.Insts))
	}
	asm.TagProgram(got)
	asm.OracleTagProgram(want)
	for i, g := range got.Insts {
		w := want.Insts[i]
		if g.Addr != w.Addr || g.Mnemonic != w.Mnemonic || !slices.Equal(g.Operands, w.Operands) || g.Size != w.Size {
			t.Fatalf("instruction %d: %#x %q %q size %d, oracle %#x %q %q size %d", i,
				g.Addr, g.Mnemonic, g.Operands, g.Size, w.Addr, w.Mnemonic, w.Operands, w.Size)
		}
		if g.Kind() != asm.OracleKind(w) || g.Category() != asm.OracleCategory(w) ||
			g.NumericConstants() != asm.OracleNumericConstants(w) {
			t.Fatalf("instruction %d (%s %q): kind %d category %d constants %d, oracle %d %d %d", i,
				g.Mnemonic, g.Operands, g.Kind(), g.Category(), g.NumericConstants(),
				asm.OracleKind(w), asm.OracleCategory(w), asm.OracleNumericConstants(w))
		}
		gDst, gOK := g.DstAddr()
		wDst, wOK := asm.OracleDstAddr(w)
		if gOK != wOK || gOK && gDst != wDst {
			t.Fatalf("instruction %d (%s %q): DstAddr %#x %v, oracle %#x %v", i, g.Mnemonic, g.Operands, gDst, gOK, wDst, wOK)
		}
		if g.Start != w.Start || g.HasBranch != w.HasBranch || g.BranchTo != w.BranchTo ||
			g.FallThrough != w.FallThrough || g.Return != w.Return {
			t.Fatalf("instruction %d (%#x %s): tags %+v, oracle %+v", i, g.Addr, g.Mnemonic, *g, *w)
		}
	}
}
