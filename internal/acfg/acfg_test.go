package acfg

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/graph"
	"repro/internal/tensor"
)

const loopAsm = `
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

func buildACFG(t *testing.T, text string) *ACFG {
	t.Helper()
	p, err := asm.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return FromCFG(cfg.Build(p))
}

func TestTableIAttributes(t *testing.T) {
	a := buildACFG(t, loopAsm)
	if a.Attrs.Cols != NumAttributes {
		t.Fatalf("cols = %d, want %d", a.Attrs.Cols, NumAttributes)
	}
	// Block 0 (entry): push ebp / mov ebp,esp / mov ecx,10 / xor eax,eax.
	row := a.Attrs.Row(0)
	checks := []struct {
		attr int
		want float64
		name string
	}{
		{AttrNumericConstants, 1, "numeric constants (the 10)"},
		{AttrTransfer, 0, "transfer"},
		{AttrCall, 0, "call"},
		{AttrArithmetic, 1, "arithmetic (xor)"},
		{AttrCompare, 0, "compare"},
		{AttrMov, 2, "mov"},
		{AttrTermination, 0, "termination"},
		{AttrDataDeclaration, 0, "data declaration"},
		{AttrTotalInstructions, 4, "total"},
		{AttrOffspring, 1, "offspring"},
		{AttrInstructionsInVertex, 4, "instructions in vertex"},
	}
	for _, c := range checks {
		if row[c.attr] != c.want {
			t.Errorf("entry block %s = %v, want %v", c.name, row[c.attr], c.want)
		}
	}
	// Block 1 (loop body): add / dec / cmp / jnz — 2 self+exit successors.
	row = a.Attrs.Row(1)
	if row[AttrArithmetic] != 2 || row[AttrCompare] != 1 || row[AttrTransfer] != 1 {
		t.Errorf("loop block counters = %v", row)
	}
	if row[AttrOffspring] != 2 {
		t.Errorf("loop block offspring = %v, want 2", row[AttrOffspring])
	}
	// jnz 0x40100a: the hex operand parses as a numeric literal plus the
	// cmp's 0 — the loop block has 2 numeric constants.
	if row[AttrNumericConstants] != 2 {
		t.Errorf("loop block numeric constants = %v, want 2", row[AttrNumericConstants])
	}
}

func TestCallAndTerminationCounters(t *testing.T) {
	a := buildACFG(t, loopAsm)
	// Block 2: call / (falls to 3). Block 3: pop, ret.
	if a.Attrs.At(2, AttrCall) != 1 {
		t.Errorf("call count = %v", a.Attrs.At(2, AttrCall))
	}
	if a.Attrs.At(3, AttrTermination) != 1 {
		t.Errorf("termination count = %v", a.Attrs.At(3, AttrTermination))
	}
}

func TestDataDeclarationAttribute(t *testing.T) {
	a := buildACFG(t, `
00401000 mov eax, 1
00401005 ret
00401010 db 0x41
00401011 dd 0x1234
`)
	// db/dd live in the block after ret.
	found := false
	for i := 0; i < a.NumVertices(); i++ {
		if a.Attrs.At(i, AttrDataDeclaration) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no block with 2 data declarations: %v", a.Attrs)
	}
}

func TestNewValidation(t *testing.T) {
	g := graph.NewDirected(2)
	if _, err := New(g, tensor.New(3, NumAttributes)); err == nil {
		t.Fatal("want row-count error")
	}
	if _, err := New(g, tensor.New(2, 5)); err == nil {
		t.Fatal("want column-count error")
	}
	if _, err := New(g, tensor.New(2, NumAttributes)); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	a := buildACFG(t, loopAsm)
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumVertices() != a.NumVertices() {
		t.Fatalf("vertices %d vs %d", b.NumVertices(), a.NumVertices())
	}
	if !tensor.Equal(a.Attrs, b.Attrs, 0) {
		t.Fatal("attribute matrices differ after round trip")
	}
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edges %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestJSONRejectsCorrupt(t *testing.T) {
	for _, bad := range []string{
		`{"n":2,"edges":[[0,5]],"attrs":[[],[]]}`,
		`{"n":2,"edges":[],"attrs":[[1]]}`,
		`{"n":-1,"edges":[],"attrs":[]}`,         // must be an error, not a NewDirected panic
		`{"n":4000000000,"edges":[],"attrs":[]}`, // rejected before anything is sized by n
		`not json`,
	} {
		if _, err := Read(bytes.NewReader([]byte(bad))); err == nil {
			t.Fatalf("want error for %q", bad)
		}
	}
}

func TestEmptyACFGRoundTrip(t *testing.T) {
	a := &ACFG{Graph: graph.NewDirected(0), Attrs: tensor.New(0, NumAttributes)}
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumVertices() != 0 {
		t.Fatal("empty round trip")
	}
}

func TestAttributeNamesAligned(t *testing.T) {
	if len(AttributeNames) != NumAttributes {
		t.Fatal("names out of sync with attribute count")
	}
	if AttributeNames[AttrOffspring] != "# Offspring, i.e., Degree" {
		t.Fatalf("offspring name = %q", AttributeNames[AttrOffspring])
	}
}
