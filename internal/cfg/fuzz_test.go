package cfg_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/acfg"
	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/malgen"
	"repro/internal/tensor"
)

// FuzzFrontHalf holds everything after the parser — the leaders-then-sweep
// block builder and the Table I sums over stored counters — to the parent
// commit's map-based builder (oracle_test.go) and to attribute counts read
// afresh from each instruction's text, and checks the Section IV-A
// invariants on every listing the parser accepts: block IDs dense and in
// address order, the blocks a partition of the program in program order,
// and Validate refusing only what the oracle's CFG is refused for.
func FuzzFrontHalf(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		listing := malgen.GenerateProgram(rng, malgen.MSKProfileFor(int(seed)%3))
		f.Add(listing)
		obfuscated, err := malgen.ObfuscateProgram(rng, listing, 0.5)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(obfuscated)
	}
	f.Add("00401000 call 0x500000\n00401005 jmp 0x300000\n00401007 call 0x500000\n0040100c ret") // placeholders either side, one shared
	f.Add("00401000 jmp 0x401001\n00401002 ret")                                                 // placeholder inside a block: Validate refuses
	f.Add("00401000 jnz 0x401000\n00401002 jmp ch\n00401004 hlt\n00401005 call 0x401000")
	f.Add("00401000 jz 0x401004\n00401002 jmp 0x401006\n00401004 nop\n00401005 ret\n00401006 ret")
	f.Add("00401010 ret\n00401000 loop 0x401010\n00401005 jmp eax")
	f.Add("0 jmp 0\n")
	f.Add("; nothing\n")

	f.Fuzz(func(t *testing.T, text string) {
		p, err := asm.ParseString(text)
		if err != nil {
			return
		}
		got := cfg.Build(p)
		// Build has tagged p; the tags are the first pass's output, which
		// both builders read and neither writes.
		want := cfg.OracleConnectBlocks(p)

		if len(got.Blocks) != len(want.Blocks) {
			t.Fatalf("%d blocks, oracle %d\n%s", len(got.Blocks), len(want.Blocks), got)
		}
		var covered []*asm.Instruction
		for i, b := range got.Blocks {
			w := want.Blocks[i]
			if b.ID != i || b.Start != w.Start || !slices.Equal(b.Insts, w.Insts) {
				t.Fatalf("block %d: ID %d @ %#x with %d instructions, oracle ID %d @ %#x with %d",
					i, b.ID, b.Start, len(b.Insts), w.ID, w.Start, len(w.Insts))
			}
			if i > 0 && b.Start <= got.Blocks[i-1].Start {
				t.Fatalf("block %d @ %#x does not follow block %d @ %#x", i, b.Start, i-1, got.Blocks[i-1].Start)
			}
			covered = append(covered, b.Insts...)
		}
		if !slices.Equal(covered, p.Insts) {
			t.Fatalf("blocks hold %d instructions in order, program has %d", len(covered), p.Len())
		}
		if !slices.Equal(got.Graph.Edges(), want.Graph.Edges()) {
			t.Fatalf("edges %v, oracle %v", got.Graph.Edges(), want.Graph.Edges())
		}

		gotErr, wantErr := got.Validate(), want.Validate()
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("Validate: %v, oracle %v", gotErr, wantErr)
		}
		placeholders := slices.ContainsFunc(got.Blocks, func(b *cfg.Block) bool { return len(b.Insts) == 0 })
		if gotErr != nil && !placeholders {
			t.Fatalf("Validate refuses a CFG with no placeholder block: %v", gotErr)
		}

		attrs := acfg.FromCFG(got).Attrs
		if oracle := oracleAttributes(want); !slices.Equal(attrs.Data, oracle.Data) {
			t.Fatalf("attributes %v, oracle %v", attrs.Data, oracle.Data)
		}
		whole, err := acfg.FromASM(text)
		if (err == nil) != (gotErr == nil) {
			t.Fatalf("FromASM: %v, Validate: %v", err, gotErr)
		}
		if err == nil && (!slices.Equal(whole.Attrs.Data, attrs.Data) || !slices.Equal(whole.Graph.Edges(), got.Graph.Edges())) {
			t.Fatal("FromASM differs from Parse → Build → FromCFG")
		}
	})
}

// oracleAttributes is the parent commit's acfg.FromCFG loop, with every
// instruction's category and constant count read from its text rather than
// from what the parser stored.
func oracleAttributes(c *cfg.CFG) *tensor.Matrix {
	attrs := tensor.New(c.NumBlocks(), acfg.NumAttributes)
	for i, b := range c.Blocks {
		row := attrs.Row(i)
		for _, stored := range b.Insts {
			inst := asm.Instruction{Mnemonic: stored.Mnemonic, Operands: stored.Operands}
			row[acfg.AttrNumericConstants] += float64(inst.NumericConstants())
			switch inst.Category() {
			case asm.CatTransfer:
				row[acfg.AttrTransfer]++
			case asm.CatCall:
				row[acfg.AttrCall]++
			case asm.CatArithmetic:
				row[acfg.AttrArithmetic]++
			case asm.CatCompare:
				row[acfg.AttrCompare]++
			case asm.CatMov:
				row[acfg.AttrMov]++
			case asm.CatTermination:
				row[acfg.AttrTermination]++
			case asm.CatDataDeclaration:
				row[acfg.AttrDataDeclaration]++
			}
			row[acfg.AttrTotalInstructions]++
		}
		row[acfg.AttrOffspring] = float64(c.Graph.OutDegree(i))
		row[acfg.AttrInstructionsInVertex] = float64(len(b.Insts))
	}
	return attrs
}
