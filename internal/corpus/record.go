// Package corpus implements the durable streaming corpus tier: a compact
// binary segment format for labeled ACFG samples with a per-segment offset
// index. Segments are immutable once committed (the writer stages both
// files as temporary siblings, fsyncs, renames, and fsyncs the directory),
// every record is length-prefixed and CRC-checksummed, and the index gives
// O(1) random access by record number — so a corpus of millions of graphs
// can be iterated or sampled from disk without ever being resident in
// memory. The service's WAL compactor (internal/service) turns JSONL WAL
// prefixes into segments and the service keeps them open, reading a
// segment-resident sample back with Segment.Record whenever a training job
// fetches it; core.Train can equally read a Set through Source, one
// mini-batch at a time.
package corpus

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/acfg"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Record is one corpus sample as stored in a segment. The family travels
// by name (not label index) so segments stay valid as long as the serving
// family universe contains it, and the ACFG content hash computed at
// ingest rides along so replay-time dedup never re-hashes the corpus.
type Record struct {
	Family string
	Name   string
	Hash   [sha256.Size]byte
	ACFG   *acfg.ACFG
}

// maxStringLen bounds the family and name fields; anything longer is
// corruption, not data.
const maxStringLen = 1 << 16

// appendRecord encodes r's payload (everything inside the length+checksum
// frame) onto buf and returns the extended slice.
//
// Layout: uvarint-prefixed family and name strings, the 32-byte content
// hash, uvarint vertex count, per-vertex successor lists (uvarint degree
// then ascending uvarint successors), uvarint attribute column count, then
// rows·cols little-endian float64 bit patterns.
func appendRecord(buf []byte, r *Record) []byte {
	buf = appendString(buf, r.Family)
	buf = appendString(buf, r.Name)
	buf = append(buf, r.Hash[:]...)
	g := r.ACFG.Graph
	n := g.N()
	buf = binary.AppendUvarint(buf, uint64(n))
	for u := 0; u < n; u++ {
		succ := g.Succ(u)
		buf = binary.AppendUvarint(buf, uint64(len(succ)))
		for _, v := range succ {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	attrs := r.ACFG.Attrs
	buf = binary.AppendUvarint(buf, uint64(attrs.Cols))
	var scratch [8]byte
	for _, v := range attrs.Data {
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
		buf = append(buf, scratch[:]...)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decodeRecord parses a payload produced by appendRecord. The input must
// be exactly one record; trailing bytes are corruption.
func decodeRecord(b []byte) (*Record, error) {
	r := &Record{}
	var err error
	if r.Family, b, err = readString(b); err != nil {
		return nil, fmt.Errorf("corpus: record family: %w", err)
	}
	if r.Name, b, err = readString(b); err != nil {
		return nil, fmt.Errorf("corpus: record name: %w", err)
	}
	if len(b) < sha256.Size {
		return nil, fmt.Errorf("corpus: record truncated before hash")
	}
	copy(r.Hash[:], b[:sha256.Size])
	b = b[sha256.Size:]

	n, b, err := readUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("corpus: record vertex count: %w", err)
	}
	// A record frame is bounded by the segment's length prefix; cap the
	// claimed vertex count by what the remaining bytes could possibly hold
	// (every vertex costs at least one degree byte) so corruption cannot
	// drive a huge allocation.
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("corpus: record claims %d vertices in %d bytes", n, len(b))
	}
	g := graph.NewDirected(int(n))
	for u := 0; u < int(n); u++ {
		deg, rest, err := readUvarint(b)
		if err != nil {
			return nil, fmt.Errorf("corpus: vertex %d degree: %w", u, err)
		}
		b = rest
		if deg > n {
			return nil, fmt.Errorf("corpus: vertex %d claims %d successors of %d vertices", u, deg, n)
		}
		for k := 0; k < int(deg); k++ {
			v, rest, err := readUvarint(b)
			if err != nil {
				return nil, fmt.Errorf("corpus: vertex %d successor: %w", u, err)
			}
			b = rest
			if v >= n {
				return nil, fmt.Errorf("corpus: edge (%d,%d) out of range n=%d", u, v, n)
			}
			g.AddEdge(u, int(v))
		}
	}

	cols, b, err := readUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("corpus: record attr columns: %w", err)
	}
	if cols != acfg.NumAttributes {
		return nil, fmt.Errorf("corpus: record has %d attribute columns, want %d", cols, acfg.NumAttributes)
	}
	want := int(n) * int(cols) * 8
	if len(b) != want {
		return nil, fmt.Errorf("corpus: record has %d attribute bytes, want %d", len(b), want)
	}
	attrs := tensor.New(int(n), int(cols))
	for i := range attrs.Data {
		attrs.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	a, err := acfg.New(g, attrs)
	if err != nil {
		return nil, fmt.Errorf("corpus: record: %w", err)
	}
	r.ACFG = a
	return r, nil
}

func readString(b []byte) (string, []byte, error) {
	n, rest, err := readUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > maxStringLen {
		return "", nil, fmt.Errorf("string length %d exceeds limit", n)
	}
	if uint64(len(rest)) < n {
		return "", nil, fmt.Errorf("truncated string of %d bytes", n)
	}
	return string(rest[:n]), rest[n:], nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated uvarint")
	}
	return v, b[n:], nil
}
