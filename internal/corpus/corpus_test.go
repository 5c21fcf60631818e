package corpus

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/acfg"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// testRecord builds a deterministic record with n vertices; seed varies the
// attribute values and edge pattern so distinct records differ.
func testRecord(t *testing.T, family, name string, n, seed int) *Record {
	t.Helper()
	g := graph.NewDirected(n)
	for u := 0; u < n; u++ {
		g.AddEdge(u, (u+1)%n)
		if (u+seed)%3 == 0 {
			g.AddEdge(u, (u+2)%n)
		}
	}
	attrs := tensor.New(n, acfg.NumAttributes)
	for i := range attrs.Data {
		attrs.Data[i] = float64(i*7+seed) * 0.25
	}
	a, err := acfg.New(g, attrs)
	if err != nil {
		t.Fatalf("acfg.New: %v", err)
	}
	return &Record{Family: family, Name: name, Hash: a.ContentHash(), ACFG: a}
}

func writeSegment(t *testing.T, dir string, seq uint64, recs []*Record) string {
	t.Helper()
	w, err := NewWriter(dir, seq)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	path, err := w.Commit()
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return path
}

func sameRecord(t *testing.T, got, want *Record) {
	t.Helper()
	if got.Family != want.Family || got.Name != want.Name {
		t.Fatalf("identity mismatch: got %s/%s want %s/%s", got.Family, got.Name, want.Family, want.Name)
	}
	if got.Hash != want.Hash {
		t.Fatalf("stored hash mismatch for %s", want.Name)
	}
	if got.ACFG.ContentHash() != want.ACFG.ContentHash() {
		t.Fatalf("decoded ACFG content differs for %s", want.Name)
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := []*Record{
		testRecord(t, "benign", "a-000001", 5, 1),
		testRecord(t, "trojan", "b-000002", 9, 2),
		testRecord(t, "worm", "c-000003", 3, 3),
	}
	path := writeSegment(t, dir, 1, recs)

	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatalf("OpenSegment: %v", err)
	}
	defer seg.Close()
	if seg.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", seg.Len(), len(recs))
	}
	// Random access, deliberately out of order.
	for _, i := range []int{2, 0, 1} {
		got, err := seg.Record(i)
		if err != nil {
			t.Fatalf("Record(%d): %v", i, err)
		}
		sameRecord(t, got, recs[i])
	}
	// Streaming iteration visits all records in order.
	var visited int
	if err := seg.Iterate(func(i int, r *Record) error {
		sameRecord(t, r, recs[i])
		visited++
		return nil
	}); err != nil {
		t.Fatalf("Iterate: %v", err)
	}
	if visited != len(recs) {
		t.Fatalf("Iterate visited %d, want %d", visited, len(recs))
	}
}

// TestSegmentConcurrentReaders is the regression test for Iterate moving the
// file's shared offset: the server keeps segments open for its whole life
// and serves training jobs from them with Record while boot replay or a
// second job may stream the same segment, so two Iterates and a stream of
// random-order Records on one open Segment must all see exactly the bytes
// that were written. Run it under -race.
func TestSegmentConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	var recs []*Record
	for i := 0; i < 64; i++ {
		recs = append(recs, testRecord(t, "benign", fmt.Sprintf("r-%06d", i), 3+i%29, i))
	}
	seg, err := OpenSegment(writeSegment(t, dir, 1, recs))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	want := make([][]byte, len(recs))
	for i, r := range recs {
		want[i] = appendRecord(nil, r)
	}
	check := func(who string, i int, r *Record) error {
		if got := appendRecord(nil, r); !bytes.Equal(got, want[i]) {
			return fmt.Errorf("%s: record %d decoded to different bytes", who, i)
		}
		return nil
	}

	errs := make(chan error, 3)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 8; pass++ {
				visited := 0
				err := seg.Iterate(func(i int, r *Record) error {
					visited++
					return check(fmt.Sprintf("iterate %d", g), i, r)
				})
				if err == nil && visited != len(recs) {
					err = fmt.Errorf("iterate %d visited %d records, want %d", g, visited, len(recs))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for k := 0; k < 8*len(recs); k++ {
			i := rng.Intn(len(recs))
			r, err := seg.Record(i)
			if err == nil {
				err = check("record", i, r)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSegmentTornTailDetected(t *testing.T) {
	dir := t.TempDir()
	recs := []*Record{
		testRecord(t, "benign", "t-000001", 4, 1),
		testRecord(t, "benign", "t-000002", 4, 2),
	}
	path := writeSegment(t, dir, 1, recs)

	st, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, err := OpenSegment(path); err == nil {
		t.Fatal("OpenSegment accepted a torn segment tail")
	} else if !strings.Contains(err.Error(), "index says") {
		t.Fatalf("unexpected error for torn tail: %v", err)
	}
}

func TestSegmentChecksumMismatchDetected(t *testing.T) {
	dir := t.TempDir()
	recs := []*Record{
		testRecord(t, "benign", "x-000001", 4, 1),
		testRecord(t, "benign", "x-000002", 4, 2),
	}
	path := writeSegment(t, dir, 1, recs)

	// Flip one payload byte inside the second record (past its frame header).
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatalf("OpenSegment: %v", err)
	}
	off := seg.offsets[1] + frameHeaderLen + 3
	_ = seg.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	b[off] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	seg, err = OpenSegment(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer seg.Close()
	if _, err := seg.Record(0); err != nil {
		t.Fatalf("intact record should still read: %v", err)
	}
	if _, err := seg.Record(1); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("Record(1) = %v, want checksum mismatch", err)
	}
	err = seg.Iterate(func(i int, r *Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("Iterate = %v, want checksum mismatch", err)
	}
}

func TestIndexChecksumMismatchDetected(t *testing.T) {
	dir := t.TempDir()
	path := writeSegment(t, dir, 1, []*Record{testRecord(t, "benign", "i-000001", 4, 1)})
	idx := idxPathFor(path)
	b, err := os.ReadFile(idx)
	if err != nil {
		t.Fatalf("read idx: %v", err)
	}
	b[len(b)-6] ^= 0x01
	if err := os.WriteFile(idx, b, 0o644); err != nil {
		t.Fatalf("write idx: %v", err)
	}
	if _, err := OpenSegment(path); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("OpenSegment = %v, want index checksum error", err)
	}
}

func TestSetSpansSegmentsAndSweep(t *testing.T) {
	dir := t.TempDir()
	first := []*Record{
		testRecord(t, "benign", "s-000001", 4, 1),
		testRecord(t, "trojan", "s-000002", 6, 2),
	}
	second := []*Record{
		testRecord(t, "worm", "s-000003", 5, 3),
	}
	writeSegment(t, dir, 1, first)
	writeSegment(t, dir, 2, second)

	// An uncommitted segment (no index) and stray temp files must be swept
	// and must not appear in the set.
	stray := SegmentPath(dir, 3)
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatalf("write stray: %v", err)
	}
	tmp := filepath.Join(dir, segPrefix+"123.tmp-seg")
	if err := os.WriteFile(tmp, []byte("tmp"), 0o644); err != nil {
		t.Fatalf("write tmp: %v", err)
	}
	if err := SweepStray(dir); err != nil {
		t.Fatalf("SweepStray: %v", err)
	}
	for _, f := range []string{stray, tmp} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Fatalf("sweep left %s behind", f)
		}
	}

	set, err := OpenSet(dir)
	if err != nil {
		t.Fatalf("OpenSet: %v", err)
	}
	defer set.Close()
	all := append(append([]*Record{}, first...), second...)
	if set.Len() != len(all) || set.Segments() != 2 {
		t.Fatalf("set has %d records in %d segments, want %d in 2", set.Len(), set.Segments(), len(all))
	}
	for i, want := range all {
		got, err := set.Record(i)
		if err != nil {
			t.Fatalf("Record(%d): %v", i, err)
		}
		sameRecord(t, got, want)
	}
	var visited int
	if err := set.Iterate(func(i int, r *Record) error {
		sameRecord(t, r, all[i])
		visited++
		return nil
	}); err != nil {
		t.Fatalf("Iterate: %v", err)
	}
	if visited != len(all) {
		t.Fatalf("Iterate visited %d, want %d", visited, len(all))
	}

	next, err := NextSeq(dir)
	if err != nil {
		t.Fatalf("NextSeq: %v", err)
	}
	if next != 3 {
		t.Fatalf("NextSeq = %d, want 3", next)
	}
}

func TestDecodeRecordRejectsCorruption(t *testing.T) {
	r := testRecord(t, "benign", "d-000001", 4, 1)
	good := appendRecord(nil, r)
	if _, err := decodeRecord(good); err != nil {
		t.Fatalf("decodeRecord(good): %v", err)
	}
	// Truncations at every prefix length must error, never panic.
	for cut := 0; cut < len(good); cut++ {
		if _, err := decodeRecord(good[:cut]); err == nil {
			t.Fatalf("decodeRecord accepted a %d-byte prefix of a %d-byte record", cut, len(good))
		}
	}
	// Trailing garbage is corruption too.
	if _, err := decodeRecord(append(append([]byte{}, good...), 0x00)); err == nil {
		t.Fatal("decodeRecord accepted trailing bytes")
	}
}

func TestRecordHashIsStoredNotRecomputed(t *testing.T) {
	// The stored hash field travels verbatim — replay-time dedup relies on
	// the ingest-time digest rather than recomputing sha256 per record.
	r := testRecord(t, "benign", "h-000001", 4, 1)
	var sentinel [sha256.Size]byte
	for i := range sentinel {
		sentinel[i] = byte(i)
	}
	r.Hash = sentinel
	got, err := decodeRecord(appendRecord(nil, r))
	if err != nil {
		t.Fatalf("decodeRecord: %v", err)
	}
	if got.Hash != sentinel {
		t.Fatal("decoded hash does not match the stored bytes")
	}
}
