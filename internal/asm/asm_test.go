package asm

import (
	"strings"
	"testing"
)

const sampleAsm = `
; a tiny function with a loop and a call
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

func mustParse(t *testing.T, text string) *Program {
	t.Helper()
	p, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseBasics(t *testing.T) {
	p := mustParse(t, sampleAsm)
	if p.Len() != 13 {
		t.Fatalf("parsed %d instructions, want 13", p.Len())
	}
	first := p.Insts[0]
	if first.Addr != 0x401000 || first.Mnemonic != "push" {
		t.Fatalf("first = %+v", first)
	}
	mov := p.At(0x401001)
	if mov == nil || len(mov.Operands) != 2 || mov.Operands[0] != "ebp" || mov.Operands[1] != "esp" {
		t.Fatalf("mov operands = %+v", mov)
	}
	// Sizes derive from address gaps.
	if mov.Size != 2 {
		t.Fatalf("mov size = %d, want 2", mov.Size)
	}
	if last := p.Insts[p.Len()-1]; last.Size != 1 {
		t.Fatalf("final instruction size = %d, want 1", last.Size)
	}
}

func TestParseSkipsCommentsAndLabels(t *testing.T) {
	p := mustParse(t, `
; comment
# another comment
start:
00401000  nop
`)
	if p.Len() != 1 {
		t.Fatalf("want 1 instruction, got %d", p.Len())
	}
}

func TestParseSkipsLabelsWithTrailingComments(t *testing.T) {
	// IDA puts cross-references after a label; the comment goes before the
	// label test, or the whole listing is refused.
	p := mustParse(t, `
loc_401000:   ; CODE XREF: sub_401000+12
start: ; entry
.text:00401000  push ebp
sub_401001:	;
.text:00401001  retn          ; loc_401000: is not a label here
`)
	if p.Len() != 2 {
		t.Fatalf("want 2 instructions, got %d", p.Len())
	}
	// What is left of the comment is still held to the line format.
	if _, err := ParseString("name;x:"); err == nil {
		t.Fatal(`"name" before a comment is neither a label nor an instruction`)
	}
}

func TestParseIDAStyle(t *testing.T) {
	p := mustParse(t, `
.text:00401000  push ebp       ; prologue
.text:00401001  mov  ebp, esp
.text:00401003  jnz  0x401000  ; loop back
`)
	if p.Len() != 3 {
		t.Fatalf("parsed %d instructions, want 3", p.Len())
	}
	if p.Insts[0].Addr != 0x401000 {
		t.Fatalf("addr = %#x", p.Insts[0].Addr)
	}
	// Inline comments stripped from operands.
	jnz := p.At(0x401003)
	if len(jnz.Operands) != 1 || jnz.Operands[0] != "0x401000" {
		t.Fatalf("jnz operands = %v", jnz.Operands)
	}
}

func TestParseRejectsBadLines(t *testing.T) {
	for _, bad := range []string{"garbage", "zzz nop", "00401000"} {
		if _, err := ParseString(bad); err == nil {
			t.Fatalf("want error for %q", bad)
		}
	}
}

func TestParseRejectsDuplicateAddresses(t *testing.T) {
	if _, err := ParseString("00401000 nop\n00401000 nop"); err == nil {
		t.Fatal("want duplicate-address error")
	}
}

func TestProgramSortedByAddress(t *testing.T) {
	p := mustParse(t, "00401010 ret\n00401000 nop\n00401005 nop")
	for i := 1; i < p.Len(); i++ {
		if p.Insts[i].Addr <= p.Insts[i-1].Addr {
			t.Fatal("not sorted")
		}
	}
	if p.IndexOf(0x401005) != 1 {
		t.Fatalf("IndexOf = %d", p.IndexOf(0x401005))
	}
	if p.IndexOf(0xdead) != -1 {
		t.Fatal("IndexOf missing addr must be -1")
	}
}

func TestNextHelper(t *testing.T) {
	p := mustParse(t, "00401000 nop\n00401001 ret")
	if got := p.Next(p.Insts[0]); got != p.Insts[1] {
		t.Fatal("Next mismatch")
	}
	if p.Next(p.Insts[1]) != nil {
		t.Fatal("Next at end must be nil")
	}
}

func TestKinds(t *testing.T) {
	tests := []struct {
		mnemonic string
		want     Kind
	}{
		{"jmp", KindUnconditionalJump},
		{"jnz", KindConditionalJump},
		{"je", KindConditionalJump},
		{"jecxz", KindConditionalJump},
		{"call", KindCall},
		{"ret", KindReturn},
		{"retn", KindReturn},
		{"hlt", KindHalt},
		{"mov", KindOther},
		{"add", KindOther},
	}
	for _, tt := range tests {
		in := &Instruction{Mnemonic: tt.mnemonic}
		if got := in.Kind(); got != tt.want {
			t.Errorf("Kind(%s) = %v, want %v", tt.mnemonic, got, tt.want)
		}
	}
}

func TestCategories(t *testing.T) {
	tests := []struct {
		mnemonic string
		want     Category
	}{
		{"jmp", CatTransfer},
		{"jge", CatTransfer},
		{"loop", CatTransfer},
		{"call", CatCall},
		{"add", CatArithmetic},
		{"xor", CatArithmetic},
		{"shr", CatArithmetic},
		{"cmp", CatCompare},
		{"test", CatCompare},
		{"mov", CatMov},
		{"lea", CatMov},
		{"movzx", CatMov},
		{"ret", CatTermination},
		{"hlt", CatTermination},
		{"db", CatDataDeclaration},
		{"dd", CatDataDeclaration},
		{"push", CatOther},
		{"nop", CatOther},
	}
	for _, tt := range tests {
		in := &Instruction{Mnemonic: tt.mnemonic}
		if got := in.Category(); got != tt.want {
			t.Errorf("Category(%s) = %v, want %v", tt.mnemonic, got, tt.want)
		}
	}
}

func TestNumericConstants(t *testing.T) {
	tests := []struct {
		operands []string
		want     int
	}{
		{[]string{"eax", "10"}, 1},
		{[]string{"eax", "0x1f"}, 1},
		{[]string{"eax", "0ah"}, 1},
		{[]string{"eax", "ebx"}, 0},
		{[]string{"[ebp+8]", "4"}, 1},
		{[]string{"1", "2"}, 2},
		{nil, 0},
		// The 8-bit registers end in h and are not constants.
		{[]string{"ah", "1"}, 1},
		{[]string{"dh", "bh"}, 0},
		{[]string{"ch", "0FFh"}, 1},
	}
	for _, tt := range tests {
		in := &Instruction{Mnemonic: "mov", Operands: tt.operands}
		if got := in.NumericConstants(); got != tt.want {
			t.Errorf("NumericConstants(%v) = %d, want %d", tt.operands, got, tt.want)
		}
	}
}

func TestParseAddrForms(t *testing.T) {
	tests := []struct {
		text string
		want uint64
		ok   bool
	}{
		{"ah", 0, false}, {"bh", 0, false}, {"ch", 0, false}, {"dh", 0, false},
		{"0Ah", 0xa, true}, {"0ah", 0xa, true}, {"12H", 0x12, true}, {"0FFh", 0xff, true},
		{"h", 0, false}, {"0x", 0, false}, {"0h", 0, true}, {"0xh", 0, false},
		{"0X1f", 0x1f, true}, {" 42 ", 42, true}, {"-1", 0, false}, {"", 0, false},
		{"18446744073709551615", 1<<64 - 1, true}, {"18446744073709551616", 0, false},
		{"0xffffffffffffffff", 1<<64 - 1, true}, {"0x10000000000000000", 0, false},
		{"0000000000000000000000401000h", 0x401000, true},
	}
	for _, tt := range tests {
		got, ok := parseAddr(tt.text)
		if ok != tt.ok || ok && got != tt.want {
			t.Errorf("parseAddr(%q) = %#x, %v; want %#x, %v", tt.text, got, ok, tt.want, tt.ok)
		}
	}
}

func TestDstAddr(t *testing.T) {
	in := &Instruction{Mnemonic: "jmp", Operands: []string{"0x401010"}}
	if dst, ok := in.DstAddr(); !ok || dst != 0x401010 {
		t.Fatalf("DstAddr = %#x, %v", dst, ok)
	}
	indirect := &Instruction{Mnemonic: "jmp", Operands: []string{"eax"}}
	if _, ok := indirect.DstAddr(); ok {
		t.Fatal("indirect jump must not resolve")
	}
	// jmp ch is a jump through a register, not to address 0xc.
	register := &Instruction{Mnemonic: "jmp", Operands: []string{"ch"}}
	if _, ok := register.DstAddr(); ok {
		t.Fatal("jump through ch must not resolve")
	}
	empty := &Instruction{Mnemonic: "jmp"}
	if _, ok := empty.DstAddr(); ok {
		t.Fatal("jump with no operand must not resolve")
	}
}

func TestTagProgramConditionalJump(t *testing.T) {
	// Algorithm 1: conditional jump marks both target and fall-through as
	// leaders and tags itself branchTo + fallThrough.
	p := mustParse(t, sampleAsm)
	TagProgram(p)

	jnz := p.At(0x401010)
	if !jnz.HasBranch || jnz.BranchTo != 0x40100a || !jnz.FallThrough {
		t.Fatalf("jnz tags = %+v", jnz)
	}
	if !p.At(0x40100a).Start {
		t.Fatal("branch target must be a leader")
	}
	if !p.At(0x401012).Start {
		t.Fatal("fall-through successor must be a leader")
	}
}

func TestTagProgramCallAndReturn(t *testing.T) {
	p := mustParse(t, sampleAsm)
	TagProgram(p)

	call := p.At(0x401012)
	if !call.HasBranch || call.BranchTo != 0x401020 || !call.FallThrough {
		t.Fatalf("call tags = %+v", call)
	}
	if !p.At(0x401020).Start {
		t.Fatal("call target must be a leader")
	}
	if !p.At(0x401017).Start {
		t.Fatal("return site must be a leader")
	}
	ret := p.At(0x401018)
	if !ret.Return || ret.FallThrough {
		t.Fatalf("ret tags = %+v", ret)
	}
	if !p.At(0x401020).Start {
		t.Fatal("instruction after ret must be a leader")
	}
}

func TestTagProgramEntryIsLeader(t *testing.T) {
	p := mustParse(t, sampleAsm)
	TagProgram(p)
	if !p.Insts[0].Start {
		t.Fatal("entry must be a leader")
	}
}

func TestTagProgramUnconditionalJump(t *testing.T) {
	p := mustParse(t, `
00401000 jmp 0x401005
00401002 nop
00401005 ret
`)
	TagProgram(p)
	jmp := p.At(0x401000)
	if jmp.FallThrough {
		t.Fatal("jmp must not fall through")
	}
	if !p.At(0x401005).Start {
		t.Fatal("jmp target must be a leader")
	}
	if !p.At(0x401002).Start {
		t.Fatal("instruction after jmp must be a leader")
	}
}

func TestTagProgramEmpty(t *testing.T) {
	p, err := ParseString("")
	if err != nil {
		t.Fatal(err)
	}
	TagProgram(p) // must not panic
}

func TestFormatRoundTrip(t *testing.T) {
	p := mustParse(t, sampleAsm)
	text := p.String()
	p2 := mustParse(t, text)
	if p2.Len() != p.Len() {
		t.Fatalf("round trip lost instructions: %d vs %d", p2.Len(), p.Len())
	}
	for i := range p.Insts {
		a, b := p.Insts[i], p2.Insts[i]
		if a.Addr != b.Addr || a.Mnemonic != b.Mnemonic || len(a.Operands) != len(b.Operands) {
			t.Fatalf("instruction %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	if !strings.Contains(text, "jnz 0x40100a") {
		t.Fatalf("formatted output missing jump: %s", text)
	}
}

func TestTagProgramJumpOutsideProgram(t *testing.T) {
	// A jump to an address not present in P must not panic and must not
	// create a leader.
	p := mustParse(t, "00401000 jmp 0xdeadbeef\n00401005 ret")
	TagProgram(p)
	j := p.At(0x401000)
	if !j.HasBranch || j.BranchTo != 0xdeadbeef {
		t.Fatalf("jump tags = %+v", j)
	}
}
