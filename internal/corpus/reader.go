package corpus

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Segment is a segment file opened for reading. Any segment file, sealed
// or still being written, serves RecordAt by frame offset (OpenReader); a
// sealed one also carries its offset index (OpenSegment), which Len, Offset
// and Iterate walk. Reads verify a frame's CRC before decoding it and never
// move the file's shared offset (RecordAt uses ReadAt, Iterate a section
// reader), so any number of goroutines may read one open Segment at once —
// while a Writer appends to the same file, too.
type Segment struct {
	path    string
	f       *os.File
	offsets []int64
	size    int64
}

// OpenReader opens the segment file at path for reading records by frame
// offset, sealed or not. It stays valid when the segment is sealed: the
// file is never renamed and its frames never move.
func OpenReader(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: open segment: %w", err)
	}
	return &Segment{path: path, f: f}, nil
}

// OpenSegment opens a sealed segment by its .seg path, validating the
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
	s, err := OpenReader(segPath)
	if err != nil {
		return nil, err
	}
	st, err := s.f.Stat()
	if err == nil && st.Size() != size {
		err = fmt.Errorf("corpus: segment %s is %d bytes, index says %d (torn tail?)", segPath, st.Size(), size)
	}
	if err == nil {
		err = checkMagic(s.f, segPath)
	}
	if err != nil {
		_ = s.Close()
		return nil, err
	}
	s.offsets, s.size = offsets, size
	return s, nil
}

// checkMagic fails unless f starts with the segment magic.
func checkMagic(f *os.File, path string) error {
	var magic [8]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil || magic != segMagic {
		return fmt.Errorf("corpus: segment %s has bad magic", path)
	}
	return nil
}

// Len returns the number of records in a sealed segment.
func (s *Segment) Len() int { return len(s.offsets) }

// Size returns a sealed segment's file size in bytes.
func (s *Segment) Size() int64 { return s.size }

// Offset returns the frame offset of record i of a sealed segment.
func (s *Segment) Offset(i int) int64 { return s.offsets[i] }

// errChecksum marks a frame whose payload does not match its CRC.
var errChecksum = errors.New("checksum mismatch")

// corrupt wraps what is wrong with the frame at byte off of path.
func corrupt(path string, off int64, err error) error {
	return fmt.Errorf("corpus: %s corrupt at byte %d: %w", path, off, err)
}

// intact reports whether payload matches the CRC in its frame header.
func intact(hdr [frameHeaderLen]byte, payload []byte) bool {
	return crc32.Checksum(payload, castagnoli) == binary.LittleEndian.Uint32(hdr[4:8])
}

// payloadLen returns the length a frame header claims, or an error when no
// frame could be that long.
func payloadLen(hdr [frameHeaderLen]byte) (uint32, error) {
	plen := binary.LittleEndian.Uint32(hdr[0:4])
	if plen == 0 || plen > maxRecordLen {
		return 0, fmt.Errorf("frame claims %d payload bytes", plen)
	}
	return plen, nil
}

// RecordAt reads, verifies and decodes the record framed at byte off.
func (s *Segment) RecordAt(off int64) (*Record, error) {
	var hdr [frameHeaderLen]byte
	if _, err := s.f.ReadAt(hdr[:], off); err != nil {
		return nil, fmt.Errorf("corpus: %s read frame at byte %d: %w", s.path, off, err)
	}
	plen, err := payloadLen(hdr)
	if err != nil {
		return nil, corrupt(s.path, off, err)
	}
	payload := make([]byte, plen)
	if _, err := s.f.ReadAt(payload, off+frameHeaderLen); err != nil {
		return nil, fmt.Errorf("corpus: %s read frame at byte %d: %w", s.path, off, err)
	}
	if !intact(hdr, payload) {
		return nil, corrupt(s.path, off, errChecksum)
	}
	r, err := decodeRecord(payload)
	if err != nil {
		return nil, corrupt(s.path, off, err)
	}
	return r, nil
}

// Iterate streams every record of a sealed segment in order, calling fn
// for each. The Record passed to fn is freshly decoded and safe to retain.
// Every frame must be intact and where the index says. Iteration stops at
// the first error, including one returned by fn.
func (s *Segment) Iterate(fn func(i int, r *Record) error) error {
	i := 0
	_, err := scan(s.f, s.path, s.size, false, func(off int64, payload []byte) error {
		if i >= len(s.offsets) || s.offsets[i] != off {
			return corrupt(s.path, off, fmt.Errorf("frame %d is not where the index says", i))
		}
		r, err := decodeRecord(payload)
		if err != nil {
			return corrupt(s.path, off, err)
		}
		if err := fn(i, r); err != nil {
			return err
		}
		i++
		return nil
	})
	if err == nil && i != len(s.offsets) {
		err = fmt.Errorf("corpus: %s holds %d records, index says %d", s.path, i, len(s.offsets))
	}
	return err
}

// scan is the one frame scanner, behind both Iterate and ResumeWriter. It
// streams the frames of f from the magic up to size, handing fn each intact
// frame's offset and payload (reused once fn returns), and returns the
// offset just past the last frame it handed over. With tornTail, a final
// frame that size cuts short — or one that fails its checksum and ends
// exactly at size, its header written but not all of its payload — is what
// a crash mid-append leaves: scan stops before it without error, and the
// caller cuts it off. Any other defect is corruption.
func scan(f *os.File, path string, size int64, tornTail bool, fn func(off int64, payload []byte) error) (int64, error) {
	off := int64(len(segMagic))
	br := bufio.NewReaderSize(io.NewSectionReader(f, off, size-off), 1<<16)
	torn := func(what error) (int64, error) {
		if tornTail {
			return off, nil
		}
		return off, corrupt(path, off, what)
	}
	var hdr [frameHeaderLen]byte
	var payload []byte
	for off < size {
		if size-off < frameHeaderLen {
			return torn(errors.New("frame header runs past the end of the file"))
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return off, fmt.Errorf("corpus: read %s: %w", path, err)
		}
		plen, err := payloadLen(hdr)
		if err != nil {
			return off, corrupt(path, off, err)
		}
		end := off + frameHeaderLen + int64(plen)
		if end > size {
			return torn(errors.New("frame runs past the end of the file"))
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, fmt.Errorf("corpus: read %s: %w", path, err)
		}
		if !intact(hdr, payload) {
			if end == size {
				return torn(errChecksum)
			}
			return off, corrupt(path, off, errChecksum)
		}
		if err := fn(off, payload); err != nil {
			return off, err
		}
		off = end
	}
	return off, nil
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
