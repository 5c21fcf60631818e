package acfg_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/acfg"
	"repro/internal/malgen"
)

// jsonAllocBound is the most UnmarshalJSON may allocate for an n-byte
// document: linear in the bytes, whatever n the document claims. A vertex
// costs at least the three bytes of an attribute row and is charged its
// row, successor list header and matrix cells; an edge costs at least six
// bytes and is charged its list slot and its decode slice's growth; the
// constant covers the decoder's own state and an error's text.
func jsonAllocBound(n int) uint64 { return 128*uint64(n) + 64<<10 }

// FuzzACFGJSON holds the ACFG JSON codec — the one text codec left, which
// decodes every acfg body of /v1/predict and /v1/samples — to three
// properties: arbitrary bytes never panic UnmarshalJSON and never make it
// allocate more than jsonAllocBound of their length; and a document it
// accepts survives MarshalJSON → UnmarshalJSON with identical attribute
// bits and an identical ContentHash.
func FuzzACFGJSON(f *testing.F) {
	doc, err := json.Marshal(malgen.GenerateACFG(rand.New(rand.NewSource(1)), malgen.YanProfileFor(0)))
	if err != nil {
		f.Fatal(err)
	}
	row := "[" + strings.Repeat("0,", acfg.NumAttributes-1) + "1.5]"
	for _, seed := range []string{
		string(doc),
		`{"n":0,"edges":[],"attrs":[]}`,
		`{"n":2,"edges":[[0,1],[0,1],[1,0]],"attrs":[` + row + `,` + row + `]}`, // duplicate edges
		`{"n":3,"edges":[],"attrs":[` + row + `]}`,                              // n ≠ row count
		`{"n":-1,"edges":[],"attrs":[]}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, doc []byte) {
		var before, after runtime.MemStats
		var a acfg.ACFG
		runtime.ReadMemStats(&before)
		err := a.UnmarshalJSON(doc)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, jsonAllocBound(len(doc)); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(doc), got, bound)
		}
		if err != nil {
			return
		}
		enc, err := a.MarshalJSON()
		if err != nil {
			t.Fatalf("an accepted document fails to re-encode: %v", err)
		}
		var again acfg.ACFG
		if err := again.UnmarshalJSON(enc); err != nil {
			t.Fatalf("the re-encoding of an accepted document fails to decode: %v", err)
		}
		if again.Attrs.Rows != a.Attrs.Rows || again.Attrs.Cols != a.Attrs.Cols {
			t.Fatalf("attrs %dx%d after the round trip, want %dx%d", again.Attrs.Rows, again.Attrs.Cols, a.Attrs.Rows, a.Attrs.Cols)
		}
		for i, v := range a.Attrs.Data {
			if math.Float64bits(again.Attrs.Data[i]) != math.Float64bits(v) {
				t.Fatalf("attr %d: bits %016x after the round trip, want %016x", i, math.Float64bits(again.Attrs.Data[i]), math.Float64bits(v))
			}
		}
		if again.ContentHash() != a.ContentHash() {
			t.Fatal("ContentHash changed over the round trip")
		}
	})
}
