package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"repro/internal/acfg"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// decodeAllocBound is the most decodeRecord may allocate for an n-byte
// payload: linear in what the frame holds, whatever counts the payload
// claims. A vertex costs at least one byte (its degree) and its successor
// list header 24, an edge at least one byte and, through append's growth,
// under 32 bytes of list, an attribute exactly its 8 bytes, and the strings
// their own length; the constant covers the Record, ACFG and graph headers
// and an error's text.
func decodeAllocBound(n int) uint64 { return 64*uint64(n) + 16<<10 }

// recordFrom turns arbitrary bytes into a valid record, so the fuzzer's
// inputs double as round-trip cases: up to 31 vertices, edges and NaN /
// ±Inf / subnormal attribute bit patterns all drawn from the input.
func recordFrom(b []byte) *Record {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return c
	}
	take := func(k int) string {
		k = min(k, len(b))
		s := string(b[:k])
		b = b[k:]
		return s
	}
	hash := sha256.Sum256(b)
	family := take(int(next() % 8))
	name := take(int(next() % 16))
	n := int(next() % 32)
	g := graph.NewDirected(n)
	for u := 0; u < n; u++ {
		for d := int(next() % 4); d > 0; d-- {
			g.AddEdge(u, int(next())%n)
		}
	}
	attrs := tensor.New(n, acfg.NumAttributes)
	for i := range attrs.Data {
		var w [8]byte
		for k := range w {
			w[k] = next()
		}
		attrs.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
	}
	a, err := acfg.New(g, attrs)
	if err != nil {
		panic(err)
	}
	return &Record{Family: family, Name: name, Hash: hash, ACFG: a}
}

// sameBits fails unless got and want carry the same strings, hash, graph and
// attribute bit patterns.
func sameBits(t *testing.T, got, want *Record) {
	t.Helper()
	if got.Family != want.Family || got.Name != want.Name || got.Hash != want.Hash {
		t.Fatalf("identity %q/%q/%x, want %q/%q/%x", got.Family, got.Name, got.Hash, want.Family, want.Name, want.Hash)
	}
	gg, wg := got.ACFG.Graph, want.ACFG.Graph
	if gg.N() != wg.N() {
		t.Fatalf("%d vertices, want %d", gg.N(), wg.N())
	}
	for u := 0; u < wg.N(); u++ {
		gs, ws := gg.Succ(u), wg.Succ(u)
		if len(gs) != len(ws) {
			t.Fatalf("vertex %d: successors %v, want %v", u, gs, ws)
		}
		for k := range ws {
			if gs[k] != ws[k] {
				t.Fatalf("vertex %d: successors %v, want %v", u, gs, ws)
			}
		}
	}
	ga, wa := got.ACFG.Attrs, want.ACFG.Attrs
	if ga.Rows != wa.Rows || ga.Cols != wa.Cols {
		t.Fatalf("attrs %dx%d, want %dx%d", ga.Rows, ga.Cols, wa.Rows, wa.Cols)
	}
	for i, v := range wa.Data {
		if math.Float64bits(ga.Data[i]) != math.Float64bits(v) {
			t.Fatalf("attr %d: bits %016x, want %016x", i, math.Float64bits(ga.Data[i]), math.Float64bits(v))
		}
	}
}

// FuzzDecodeRecord holds the segment record decoder — which now runs on
// every training fetch of a segment-resident sample, not only at boot — to
// three properties: arbitrary payloads never panic and never allocate more
// than decodeAllocBound of their length; a payload it accepts re-encodes to
// a canonical form that decodes to the same bytes again; and every valid
// record survives appendRecord → decodeRecord bit for bit.
func FuzzDecodeRecord(f *testing.F) {
	for _, seed := range [][]byte{
		nil,
		{0},
		[]byte("benign\x00"),
		bytes.Repeat([]byte{0xff}, 64),
		bytes.Repeat([]byte{0x80}, 40), // non-minimal and overflowing uvarints
	} {
		f.Add(seed)
	}
	valid := recordFrom([]byte("\x05\x07trojan-0001\x09\x02\x01\x03\x00\x02\x04\x05\x01\x01\xf0\x7f\x00\x00\x00\x00\x00\x01"))
	good := appendRecord(nil, valid)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte{}, good...), 0))

	f.Fuzz(func(t *testing.T, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := decodeRecord(payload)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, decodeAllocBound(len(payload)); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(payload), got, bound)
		}
		if err == nil {
			canon := appendRecord(nil, r)
			again, err := decodeRecord(canon)
			if err != nil {
				t.Fatalf("canonical re-encoding of an accepted payload fails to decode: %v", err)
			}
			if !bytes.Equal(appendRecord(nil, again), canon) {
				t.Fatal("canonical re-encoding is not stable")
			}
		}

		want := recordFrom(payload)
		got, err := decodeRecord(appendRecord(nil, want))
		if err != nil {
			t.Fatalf("valid record failed to decode: %v", err)
		}
		sameBits(t, got, want)
	})
}
