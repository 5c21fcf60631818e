package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
		got, err := seg.RecordAt(seg.Offset(i))
		if err != nil {
			t.Fatalf("RecordAt(Offset(%d)): %v", i, err)
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
// and serves training jobs from them with RecordAt while boot replay or a
// second job may stream the same segment, so two Iterates and a stream of
// random-order RecordAt calls on one open Segment must all see exactly the
// bytes that were written. Run it under -race.
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
			r, err := seg.RecordAt(seg.Offset(i))
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
	if _, err := seg.RecordAt(seg.Offset(0)); err != nil {
		t.Fatalf("intact record should still read: %v", err)
	}
	if _, err := seg.RecordAt(seg.Offset(1)); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("RecordAt(Offset(1)) = %v, want checksum mismatch", err)
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

	// The segment being written (no index) is listed and kept; an index
	// staged by a seal that never committed is swept.
	w, err := NewWriter(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, segPrefix+"123.tmp-idx")
	if err := os.WriteFile(tmp, []byte("tmp"), 0o644); err != nil {
		t.Fatalf("write tmp: %v", err)
	}
	if err := SweepStray(dir); err != nil {
		t.Fatalf("SweepStray: %v", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("sweep left %s behind", tmp)
	}

	paths, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{SegmentPath(dir, 1), SegmentPath(dir, 2), SegmentPath(dir, 3)}
	if fmt.Sprint(paths) != fmt.Sprint(want) {
		t.Fatalf("ListSegments = %v, want %v", paths, want)
	}
	for i, p := range paths {
		sealed, err := Sealed(p)
		if err != nil {
			t.Fatal(err)
		}
		if sealed != (i < 2) {
			t.Fatalf("Sealed(%s) = %v", p, sealed)
		}
	}
	var all []*Record
	for i, recs := range [][]*Record{first, second} {
		seg, err := OpenSegment(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.Iterate(func(k int, r *Record) error {
			sameRecord(t, r, recs[k])
			all = append(all, r)
			return nil
		}); err != nil {
			t.Fatalf("Iterate: %v", err)
		}
		_ = seg.Close()
	}
	if len(all) != 3 {
		t.Fatalf("iterated %d records, want 3", len(all))
	}

	next, err := NextSeq(dir)
	if err != nil {
		t.Fatalf("NextSeq: %v", err)
	}
	if next != 4 {
		t.Fatalf("NextSeq = %d, want 4 (one past the unsealed segment)", next)
	}
}

// openSegmentFile writes recs to a fresh unsealed segment, syncs, and
// closes it without sealing, as a crash would leave it. It returns the path
// and the frame offsets.
func openSegmentFile(t *testing.T, dir string, recs []*Record) (string, []int64) {
	t.Helper()
	w, err := NewWriter(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	offs := make([]int64, w.Count())
	for i := range offs {
		offs[i] = w.Offset(i)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return SegmentPath(dir, 1), offs
}

// resume reopens the unsealed segment at path and returns the writer and
// the names of the records it replayed.
func resume(t *testing.T, path string) (*Writer, []string, error) {
	t.Helper()
	var names []string
	w, err := ResumeWriter(path, func(off int64, r *Record) error {
		names = append(names, r.Name)
		return nil
	})
	return w, names, err
}

// TestResumeWriterCutsTornTail: a crash mid-append leaves a final frame the
// file cuts short, or one whose length is all there but whose payload is
// not. Recovery replays every intact frame, cuts the torn one off, and the
// next append lands on a frame boundary.
func TestResumeWriterCutsTornTail(t *testing.T) {
	recs := []*Record{
		testRecord(t, "benign", "t-000001", 4, 1),
		testRecord(t, "benign", "t-000002", 5, 2),
	}
	extra := appendRecord(nil, testRecord(t, "benign", "torn", 6, 3))
	for _, tc := range []struct {
		name string
		tail func(frame []byte) []byte
	}{
		{"half a header", func(frame []byte) []byte { return frame[:frameHeaderLen/2] }},
		{"half a payload", func(frame []byte) []byte { return frame[:len(frame)/2] }},
		{"payload not yet written", func(frame []byte) []byte {
			return append(frame[:frameHeaderLen:frameHeaderLen], make([]byte, len(frame)-frameHeaderLen)...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, _ := openSegmentFile(t, t.TempDir(), recs)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			frame := make([]byte, frameHeaderLen, frameHeaderLen+len(extra))
			binary.LittleEndian.PutUint32(frame[0:4], uint32(len(extra)))
			binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(extra, castagnoli))
			frame = append(frame, extra...)
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.tail(frame)); err != nil {
				t.Fatal(err)
			}
			_ = f.Close()

			w, names, err := resume(t, path)
			if err != nil {
				t.Fatalf("ResumeWriter: %v", err)
			}
			if fmt.Sprint(names) != "[t-000001 t-000002]" {
				t.Fatalf("replayed %v", names)
			}
			after, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if after.Size() != fi.Size() || w.Size() != fi.Size() {
				t.Fatalf("torn tail not cut: file %d bytes, writer %d, want %d", after.Size(), w.Size(), fi.Size())
			}
			if err := w.Append(testRecord(t, "benign", "t-000003", 3, 4)); err != nil {
				t.Fatal(err)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			_ = w.Close()
			w, names, err = resume(t, path)
			if err != nil {
				t.Fatal(err)
			}
			_ = w.Close()
			if fmt.Sprint(names) != "[t-000001 t-000002 t-000003]" {
				t.Fatalf("after the next append, replayed %v", names)
			}
		})
	}
}

// TestResumeWriterMidFileCorruptionFatal: a checksum failure before the
// last frame is not a torn tail but lost data, and recovery refuses it.
func TestResumeWriterMidFileCorruptionFatal(t *testing.T) {
	path, offs := openSegmentFile(t, t.TempDir(), []*Record{
		testRecord(t, "benign", "c-000001", 4, 1),
		testRecord(t, "benign", "c-000002", 4, 2),
	})
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[offs[0]+frameHeaderLen+3] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := resume(t, path); err == nil || !strings.Contains(err.Error(), "corrupt") || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("ResumeWriter = %v, want a corrupt checksum mismatch", err)
	}
}

// TestResumeWriterShortFile: a crash while the segment was being created
// leaves fewer bytes than the magic. It held no record; recovery restores
// the magic and appends work.
func TestResumeWriterShortFile(t *testing.T) {
	path := SegmentPath(t.TempDir(), 1)
	if err := os.WriteFile(path, segMagic[:3], 0o644); err != nil {
		t.Fatal(err)
	}
	w, names, err := resume(t, path)
	if err != nil || len(names) != 0 {
		t.Fatalf("ResumeWriter = %v, %v; want no records", names, err)
	}
	if err := w.Append(testRecord(t, "benign", "s-000001", 3, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if seg.Len() != 1 {
		t.Fatalf("sealed segment holds %d records, want 1", seg.Len())
	}
}

// TestWriterRollbackThenSeal: Rollback forgets every frame since the last
// Sync and cuts the file back; a reader opened on the segment being written
// reads records by offset before and after Commit, and the sealed index
// points at the same offsets.
func TestWriterRollbackThenSeal(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	keep := []*Record{testRecord(t, "benign", "k-000001", 4, 1), testRecord(t, "worm", "k-000002", 7, 2)}
	for _, r := range keep[:1] {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	durable := w.Size()
	if err := w.Append(testRecord(t, "benign", "dropped", 5, 3)); err != nil {
		t.Fatal(err)
	}
	w.Rollback()
	if fi, err := os.Stat(SegmentPath(dir, 7)); err != nil || fi.Size() != durable || w.Count() != 1 {
		t.Fatalf("after Rollback: file %v (%v), %d records; want %d bytes, 1 record", fi.Size(), err, w.Count(), durable)
	}
	if err := w.Append(keep[1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(SegmentPath(dir, 7))
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	offs := []int64{w.Offset(0), w.Offset(1)}
	for i, off := range offs {
		got, err := rd.RecordAt(off)
		if err != nil {
			t.Fatal(err)
		}
		sameRecord(t, got, keep[i])
	}
	path, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	for i, off := range offs {
		if seg.Offset(i) != off {
			t.Fatalf("sealed index puts record %d at %d, the writer at %d", i, seg.Offset(i), off)
		}
		got, err := rd.RecordAt(off)
		if err != nil {
			t.Fatalf("reader opened before the seal: %v", err)
		}
		sameRecord(t, got, keep[i])
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
