package corpus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segment and index file naming: corpus-000001.seg / corpus-000001.idx.
// A segment is written under its final name; it is sealed once its index
// exists. The index rename is the commit point — a .seg without its .idx is
// the segment being written, or one a crash left before its seal committed,
// and is recovered (ResumeWriter), never swept.
const (
	segSuffix = ".seg"
	idxSuffix = ".idx"
	segPrefix = "corpus-"
)

// File magics, 8 bytes each. The \r\n tail catches text-mode mangling.
var (
	segMagic = [8]byte{'M', 'C', 'S', 'E', 'G', '1', '\r', '\n'}
	idxMagic = [8]byte{'M', 'C', 'I', 'D', 'X', '1', '\r', '\n'}
)

// castagnoli is the CRC-32C polynomial table used for record and index
// checksums (hardware-accelerated on every platform Go targets).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderLen is the per-record framing overhead: uint32 payload length
// plus uint32 CRC-32C of the payload.
const frameHeaderLen = 8

// maxRecordLen bounds a single record frame; larger claims are corruption.
const maxRecordLen = 1 << 30

// SegmentPath returns the segment file path for a sequence number.
func SegmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%06d%s", segPrefix, seq, segSuffix))
}

func idxPathFor(segPath string) string {
	return strings.TrimSuffix(segPath, segSuffix) + idxSuffix
}

// seqOf parses the sequence number out of a segment or index filename.
func seqOf(name string) (uint64, bool) {
	base := filepath.Base(name)
	if !strings.HasPrefix(base, segPrefix) {
		return 0, false
	}
	core := strings.TrimPrefix(base, segPrefix)
	core = strings.TrimSuffix(strings.TrimSuffix(core, segSuffix), idxSuffix)
	n, err := strconv.ParseUint(core, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Writer appends record frames to an unsealed segment, under the segment's
// final name, and seals it with Commit. Append writes a frame in place; Sync
// makes every frame appended so far durable with one fsync; after a failed
// Append or Sync, Rollback cuts the file back to its durable size. A frame
// never moves once written, so the offset Append gave it stays valid after
// the seal.
type Writer struct {
	dir     string
	path    string
	f       *os.File
	offsets []int64 // every frame appended; the first synced are durable
	synced  int
	size    int64 // durable bytes: the magic plus the synced frames
	end     int64 // bytes written
	buf     []byte
}

// NewWriter creates segment seq in dir and makes its magic durable. The
// caller fsyncs dir when the name must survive a crash before Commit.
func NewWriter(dir string, seq uint64) (*Writer, error) {
	path := SegmentPath(dir, seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("corpus: create segment: %w", err)
	}
	w := &Writer{dir: dir, path: path, f: f, size: int64(len(segMagic)), end: int64(len(segMagic))}
	if _, err = f.WriteAt(segMagic[:], 0); err == nil {
		err = f.Sync()
	}
	if err != nil {
		w.Abort()
		return nil, fmt.Errorf("corpus: create segment: %w", err)
	}
	return w, nil
}

// ResumeWriter reopens the unsealed segment at path for appending: boot
// recovery of the segment a previous process was writing. It streams every
// intact record to fn with its frame offset, in order, then cuts a torn
// tail — the incomplete final frame of a crash mid-append — so the next
// Append lands on a frame boundary. Corruption before the tail is an error.
// A file shorter than the magic never held a record (a crash interrupted
// its creation) and is given its magic again.
func ResumeWriter(path string, fn func(off int64, r *Record) error) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("corpus: open segment: %w", err)
	}
	w := &Writer{dir: filepath.Dir(path), path: path, f: f}
	if err := w.resume(fn); err != nil {
		_ = f.Close()
		return nil, err
	}
	return w, nil
}

func (w *Writer) resume(fn func(off int64, r *Record) error) error {
	fi, err := w.f.Stat()
	if err != nil {
		return fmt.Errorf("corpus: stat segment: %w", err)
	}
	size := fi.Size()
	if size < int64(len(segMagic)) {
		if _, err := w.f.WriteAt(segMagic[:], 0); err != nil {
			return fmt.Errorf("corpus: rewrite segment magic: %w", err)
		}
		size = int64(len(segMagic))
	} else if err := checkMagic(w.f, w.path); err != nil {
		return err
	}
	end, err := scan(w.f, w.path, size, true, func(off int64, payload []byte) error {
		r, err := decodeRecord(payload)
		if err != nil {
			return corrupt(w.path, off, err)
		}
		w.offsets = append(w.offsets, off)
		return fn(off, r)
	})
	if err != nil {
		return err
	}
	if end != fi.Size() {
		err := w.f.Truncate(end)
		if err == nil {
			err = w.f.Sync()
		}
		if err != nil {
			return fmt.Errorf("corpus: cut torn segment tail: %w", err)
		}
	}
	w.synced, w.size, w.end = len(w.offsets), end, end
	return nil
}

// Append writes one record frame after the last. It is durable once Sync
// returns.
func (w *Writer) Append(r *Record) error {
	w.buf = append(w.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	w.buf = appendRecord(w.buf, r)
	payload := w.buf[frameHeaderLen:]
	if len(payload) > maxRecordLen {
		return fmt.Errorf("corpus: record %q encodes to %d bytes, limit %d", r.Name, len(payload), maxRecordLen)
	}
	binary.LittleEndian.PutUint32(w.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.f.WriteAt(w.buf, w.end); err != nil {
		return fmt.Errorf("corpus: append record: %w", err)
	}
	w.offsets = append(w.offsets, w.end)
	w.end += int64(len(w.buf))
	return nil
}

// Sync makes every appended frame durable with one fsync.
func (w *Writer) Sync() error {
	if w.end == w.size {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("corpus: sync segment: %w", err)
	}
	w.synced, w.size = len(w.offsets), w.end
	return nil
}

// Rollback drops every frame appended since the last successful Sync and
// cuts the file back to its durable size, so a failed append never leaves a
// torn frame for a later one to bury mid-file. Best effort: should the
// truncate fail too, the next Append overwrites the bytes in place and boot
// recovery cuts whatever tail is left.
func (w *Writer) Rollback() {
	w.offsets, w.end = w.offsets[:w.synced], w.size
	_ = w.f.Truncate(w.size)
}

// Count returns the number of records appended so far.
func (w *Writer) Count() int { return len(w.offsets) }

// Size returns the bytes written so far, magic included.
func (w *Writer) Size() int64 { return w.end }

// Offset returns the frame offset of record i.
func (w *Writer) Offset(i int) int64 { return w.offsets[i] }

// Commit seals the segment: it syncs the appended frames, then publishes
// the offset index — staged as a temp file, fsynced, renamed to the
// segment's .idx, and the directory fsynced. The index rename is the commit
// point; the .seg itself is neither copied nor renamed. Once the index is
// published Commit returns the segment path — with an error if closing the
// file or the directory fsync then failed — and the writer is finished.
// Before that it returns "" and the writer stays open for appends.
func (w *Writer) Commit() (string, error) {
	if err := w.Sync(); err != nil {
		w.Rollback()
		return "", err
	}
	tmp, err := writeTempFile(w.dir, segPrefix+"*.tmp-idx", encodeIndex(w.offsets, w.size))
	if err != nil {
		return "", err
	}
	if err := os.Rename(tmp, idxPathFor(w.path)); err != nil {
		_ = os.Remove(tmp)
		return "", fmt.Errorf("corpus: publish index: %w", err)
	}
	err = w.Close()
	if serr := SyncDir(w.dir); err == nil {
		err = serr
	}
	return w.path, err
}

// Close releases the file without sealing it; ResumeWriter picks the
// segment up again.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// Abort closes the writer and deletes its segment file, for a segment whose
// records nobody needs (a build that failed part-way).
func (w *Writer) Abort() {
	_ = w.Close()
	_ = os.Remove(w.path)
}

// encodeIndex lays out the index file: magic, record count, absolute frame
// offsets, total segment byte size, then a CRC-32C over everything after
// the magic.
func encodeIndex(offsets []int64, segSize int64) []byte {
	buf := make([]byte, 0, len(idxMagic)+4+len(offsets)*8+8+4)
	buf = append(buf, idxMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(offsets)))
	for _, off := range offsets {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(off))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(segSize))
	sum := crc32.Checksum(buf[len(idxMagic):], castagnoli)
	return binary.LittleEndian.AppendUint32(buf, sum)
}

// decodeIndex parses and validates an index file's bytes.
func decodeIndex(b []byte) (offsets []int64, segSize int64, err error) {
	if len(b) < len(idxMagic)+4+8+4 || [8]byte(b[:8]) != idxMagic {
		return nil, 0, fmt.Errorf("corpus: index magic/size invalid")
	}
	body, tail := b[len(idxMagic):len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return nil, 0, fmt.Errorf("corpus: index checksum mismatch")
	}
	count := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if len(body) != int(count)*8+8 {
		return nil, 0, fmt.Errorf("corpus: index claims %d records in %d bytes", count, len(body))
	}
	offsets = make([]int64, count)
	for i := range offsets {
		offsets[i] = int64(binary.LittleEndian.Uint64(body[i*8:]))
	}
	segSize = int64(binary.LittleEndian.Uint64(body[len(offsets)*8:]))
	return offsets, segSize, nil
}

// writeTempFile stages data as a fsynced temp file in dir and returns its
// path.
func writeTempFile(dir, pattern string, data []byte) (string, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return "", fmt.Errorf("corpus: stage file: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return "", fmt.Errorf("corpus: stage file: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return "", fmt.Errorf("corpus: stage file: %w", err)
	}
	return tmp, nil
}

// SyncDir fsyncs a directory so renames and creations inside it are
// durable — without it, an acknowledged file can vanish on power loss even
// though its own bytes were synced.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("corpus: open dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("corpus: sync dir: %w", err)
	}
	return nil
}

// ListSegments returns every segment file in dir, sealed or not, in
// ascending sequence order.
func ListSegments(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		return nil, fmt.Errorf("corpus: list segments: %w", err)
	}
	var segs []string
	for _, p := range paths {
		if _, ok := seqOf(p); ok {
			segs = append(segs, p)
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		a, _ := seqOf(segs[i])
		b, _ := seqOf(segs[j])
		return a < b
	})
	return segs, nil
}

// Sealed reports whether the segment at segPath has its index.
func Sealed(segPath string) (bool, error) {
	_, err := os.Stat(idxPathFor(segPath))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("corpus: stat index: %w", err)
	}
	return true, nil
}

// NextSeq returns the sequence number the next segment in dir should use:
// one past the highest segment file, sealed or not (1 for an empty dir).
func NextSeq(dir string) (uint64, error) {
	segs, err := ListSegments(dir)
	if err != nil || len(segs) == 0 {
		return 1, err
	}
	last, _ := seqOf(segs[len(segs)-1])
	return last + 1, nil
}

// SweepStray removes index files staged by a seal that never committed.
// Their segment stays: unsealed, it is recovered and sealed again.
func SweepStray(dir string) error {
	stale, err := filepath.Glob(filepath.Join(dir, segPrefix+"*.tmp-idx"))
	if err != nil {
		return fmt.Errorf("corpus: sweep: %w", err)
	}
	for _, f := range stale {
		_ = os.Remove(f)
	}
	return nil
}
