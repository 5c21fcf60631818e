package corpus

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Segment is a committed, immutable segment opened for reading. Record(i)
// is O(1) via the offset index; Iterate streams the file sequentially.
// Both paths verify the per-record CRC before decoding, and neither moves
// the file's shared offset (Record uses ReadAt, Iterate a section reader),
// so any number of goroutines may read one open Segment at once.
type Segment struct {
	path    string
	f       *os.File
	offsets []int64
	size    int64
}

// OpenSegment opens a committed segment by its .seg path, validating the
// index checksum and that the index agrees with the segment's size.
func OpenSegment(segPath string) (*Segment, error) {
	idx, err := os.ReadFile(idxPathFor(segPath))
	if err != nil {
		return nil, fmt.Errorf("corpus: read index for %s: %w", segPath, err)
	}
	offsets, size, err := decodeIndex(idx)
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", segPath, err)
	}
	f, err := os.Open(segPath)
	if err != nil {
		return nil, fmt.Errorf("corpus: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("corpus: stat segment: %w", err)
	}
	if st.Size() != size {
		_ = f.Close()
		return nil, fmt.Errorf("corpus: segment %s is %d bytes, index says %d (torn tail?)", segPath, st.Size(), size)
	}
	var magic [8]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil || magic != segMagic {
		_ = f.Close()
		return nil, fmt.Errorf("corpus: segment %s has bad magic", segPath)
	}
	return &Segment{path: segPath, f: f, offsets: offsets, size: size}, nil
}

// Path returns the segment file path.
func (s *Segment) Path() string { return s.path }

// Len returns the number of records in the segment.
func (s *Segment) Len() int { return len(s.offsets) }

// Size returns the segment file size in bytes.
func (s *Segment) Size() int64 { return s.size }

// Record reads, verifies, and decodes record i via the offset index.
func (s *Segment) Record(i int) (*Record, error) {
	if i < 0 || i >= len(s.offsets) {
		return nil, fmt.Errorf("corpus: record %d out of range [0,%d)", i, len(s.offsets))
	}
	start := s.offsets[i]
	end := s.size
	if i+1 < len(s.offsets) {
		end = s.offsets[i+1]
	}
	if end-start < frameHeaderLen || end-start > maxRecordLen {
		return nil, fmt.Errorf("corpus: %s record %d has invalid frame span [%d,%d)", s.path, i, start, end)
	}
	frame := make([]byte, end-start)
	if _, err := s.f.ReadAt(frame, start); err != nil {
		return nil, fmt.Errorf("corpus: read record %d: %w", i, err)
	}
	payload, err := verifyFrame(frame)
	if err != nil {
		return nil, fmt.Errorf("corpus: %s record %d: %w", s.path, i, err)
	}
	return decodeRecord(payload)
}

// Iterate streams every record in order, calling fn for each. The Record
// passed to fn is freshly decoded and safe to retain. Iteration stops at
// the first error, including one returned by fn.
func (s *Segment) Iterate(fn func(i int, r *Record) error) error {
	start := int64(len(segMagic))
	br := bufio.NewReaderSize(io.NewSectionReader(s.f, start, s.size-start), 1<<16)
	var hdr [frameHeaderLen]byte
	var payload []byte
	for i := 0; i < len(s.offsets); i++ {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return fmt.Errorf("corpus: %s record %d header: %w", s.path, i, err)
		}
		plen := binary.LittleEndian.Uint32(hdr[0:4])
		if plen == 0 || plen > maxRecordLen {
			return fmt.Errorf("corpus: %s record %d claims %d payload bytes", s.path, i, plen)
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return fmt.Errorf("corpus: %s record %d payload: %w", s.path, i, err)
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return fmt.Errorf("corpus: %s record %d: checksum mismatch", s.path, i)
		}
		r, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("corpus: %s record %d: %w", s.path, i, err)
		}
		if err := fn(i, r); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the segment's file handle.
func (s *Segment) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// verifyFrame checks a frame's length prefix and CRC, returning the
// payload slice (aliasing frame's backing array).
func verifyFrame(frame []byte) ([]byte, error) {
	plen := binary.LittleEndian.Uint32(frame[0:4])
	if int(plen) != len(frame)-frameHeaderLen {
		return nil, fmt.Errorf("frame length %d does not match span %d", plen, len(frame)-frameHeaderLen)
	}
	payload := frame[frameHeaderLen:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frame[4:8]) {
		return nil, fmt.Errorf("checksum mismatch")
	}
	return payload, nil
}

// Set is the ordered collection of committed segments in a state
// directory, presenting them as one logical record sequence. It only grows:
// Append adds a newly committed segment at the end, and no segment leaves
// before Close. The Set's own bookkeeping is not synchronized (its owner
// serializes Append against the other methods); the Segments it holds are
// safe for concurrent readers.
type Set struct {
	segs  []*Segment
	start []int // cumulative record count before segs[i]
	total int
}

// OpenSet opens every committed segment in dir in sequence order.
func OpenSet(dir string) (*Set, error) {
	paths, err := ListSegments(dir)
	if err != nil {
		return nil, err
	}
	set := &Set{}
	for _, p := range paths {
		seg, err := OpenSegment(p)
		if err != nil {
			_ = set.Close()
			return nil, err
		}
		set.Append(seg)
	}
	return set, nil
}

// Append adds seg after every segment already in the set; the set owns it
// from then on and closes it in Close.
func (s *Set) Append(seg *Segment) {
	s.segs = append(s.segs, seg)
	s.start = append(s.start, s.total)
	s.total += seg.Len()
}

// Len returns the total record count across all segments.
func (s *Set) Len() int { return s.total }

// Segments returns the number of open segments.
func (s *Set) Segments() int { return len(s.segs) }

// Segment returns the k-th segment in sequence order.
func (s *Set) Segment(k int) *Segment { return s.segs[k] }

// Bytes returns the total on-disk size of all segments.
func (s *Set) Bytes() int64 {
	var n int64
	for _, seg := range s.segs {
		n += seg.Size()
	}
	return n
}

// Record fetches global record i (segments concatenated in order).
func (s *Set) Record(i int) (*Record, error) {
	if i < 0 || i >= s.total {
		return nil, fmt.Errorf("corpus: record %d out of range [0,%d)", i, s.total)
	}
	// Binary search the cumulative starts for the owning segment.
	lo, hi := 0, len(s.segs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.start[mid] <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return s.segs[lo].Record(i - s.start[lo])
}

// Iterate streams every record across all segments in order.
func (s *Set) Iterate(fn func(i int, r *Record) error) error {
	for si, seg := range s.segs {
		base := s.start[si]
		if err := seg.Iterate(func(i int, r *Record) error {
			return fn(base+i, r)
		}); err != nil {
			return err
		}
	}
	return nil
}

// Close closes all segments; the first error wins.
func (s *Set) Close() error {
	var first error
	for _, seg := range s.segs {
		if err := seg.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.segs = nil
	return first
}
