package service

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dataset"
)

// Store is the server's durable state directory:
//
//	<dir>/LOCK            exclusive flock guarding the directory
//	<dir>/corpus-NNNNNN.seg/.idx  immutable binary segments (compacted history)
//	<dir>/corpus.wal      append-only JSONL tail, one accepted sample per line
//	<dir>/model.json      atomic checkpoint of the serving model
//
// Accepted samples land in the WAL (fsynced per request, group-committed on
// bulk import). When the WAL passes a size threshold, the compactor turns
// its durable prefix into a binary segment — staged, fsynced, renamed, and
// made durable with a directory fsync before the WAL is tail-swapped — so
// boot replay streams compact checksummed segments instead of re-parsing
// the full JSONL history. The index rename is the commit point: a crash at
// any instant leaves either the WAL records, the segment, or (briefly)
// both, and replay dedups by content hash so no sample is ever counted
// twice. A torn trailing WAL line (crash mid-append) is truncated away on
// replay; a failed append truncates back to the last durable offset so the
// WAL never carries a torn record mid-file.
//
// Committed segments stay open for the store's life as one append-only
// corpus.Set: the attached server's index reads segment-resident samples
// back through them, so only the WAL tail is held decoded in memory.
type Store struct {
	dir  string
	lock *os.File

	mu         sync.Mutex
	wal        *os.File
	walSize    int64 // bytes of durable, intact records (last-good offset)
	walRecords int
	set        *corpus.Set  // every committed segment: opened by Replay, grown by Compact, closed by Close
	index      *corpusIndex // the attached server's corpus; nil until AttachStore

	// compactMu serializes Compact: a forced call racing the background
	// compactor would fold the same WAL prefix twice, and the second tail
	// swap would cut records the first one kept.
	compactMu    sync.Mutex
	compactBytes int64
	compactions  int
	compactCh    chan struct{}
	stopCh       chan struct{}
	wg           sync.WaitGroup
	onCompact    func(error)
}

const (
	walFilename   = "corpus.wal"
	modelFilename = "model.json"
	lockFilename  = "LOCK"
)

// ErrStateDirLocked reports that another process holds the state
// directory's exclusive lock. magic-server maps it to exit code 2.
var ErrStateDirLocked = errors.New("state directory locked by another process")

// Fault-injection seams for durability regression tests. Production always
// runs the plain operations.
var (
	walWrite = func(f *os.File, b []byte) (int, error) { return f.Write(b) }
	walSync  = func(f *os.File) error { return f.Sync() }
	fsyncDir = corpus.SyncDir
)

// walEntry is one corpus sample on disk. The family travels by name, not
// label index, so the WAL stays valid as long as the server's family
// universe contains it. Hash is the hex ACFG content digest computed at
// ingest; replay and compaction reuse it instead of re-hashing (absent in
// WALs written before dedup existed, in which case it is recomputed once).
type walEntry struct {
	Family string     `json:"family"`
	Name   string     `json:"name"`
	Hash   string     `json:"hash,omitempty"`
	ACFG   *acfg.ACFG `json:"acfg"`
}

// record converts the wire entry to a corpus record, recomputing the
// content hash only for legacy entries that lack one.
func (e walEntry) record() (*corpus.Record, error) {
	if e.ACFG == nil {
		return nil, fmt.Errorf("service: wal sample %q has no acfg", e.Name)
	}
	r := &corpus.Record{Family: e.Family, Name: e.Name, ACFG: e.ACFG}
	if e.Hash == "" {
		r.Hash = e.ACFG.ContentHash()
		return r, nil
	}
	b, err := hex.DecodeString(e.Hash)
	if err != nil || len(b) != sha256.Size {
		return nil, fmt.Errorf("service: wal sample %q has malformed content hash %q", e.Name, e.Hash)
	}
	copy(r.Hash[:], b)
	return r, nil
}

// OpenStore opens (creating if needed) a state directory and takes its
// exclusive lock; a second process pointed at the same directory gets
// ErrStateDirLocked instead of silently interleaving WAL appends. Leftover
// temporaries from interrupted atomic writes (model checkpoint, segment
// staging, WAL tail swap) and uncommitted segments are swept away.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: open state dir: %w", err)
	}
	lock, err := lockStateDir(dir)
	if err != nil {
		return nil, err
	}
	for _, pat := range []string{modelFilename + ".tmp-*", walFilename + ".tmp-*"} {
		if stale, err := filepath.Glob(filepath.Join(dir, pat)); err == nil {
			for _, f := range stale {
				_ = os.Remove(f)
			}
		}
	}
	if err := corpus.SweepStray(dir); err != nil {
		_ = lock.Close()
		return nil, err
	}
	return &Store{dir: dir, lock: lock, set: &corpus.Set{}}, nil
}

// lockStateDir takes a non-blocking exclusive flock on <dir>/LOCK. The
// kernel drops the lock when the holder dies (kill -9 included), so there
// are no stale locks to clean up.
func lockStateDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockFilename), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: open state lock: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("%w: %s", ErrStateDirLocked, dir)
		}
		return nil, fmt.Errorf("service: lock state dir: %w", err)
	}
	return f, nil
}

// Dir returns the state directory path.
func (st *Store) Dir() string { return st.dir }

func (st *Store) walPath() string   { return filepath.Join(st.dir, walFilename) }
func (st *Store) modelPath() string { return filepath.Join(st.dir, modelFilename) }

// StoreStats is a point-in-time snapshot of the storage tier, surfaced on
// /healthz and as metrics.
type StoreStats struct {
	Segments       int
	SegmentRecords int
	SegmentBytes   int64
	WALRecords     int
	WALBytes       int64
	Compactions    int
}

// Stats returns a snapshot of segment/WAL sizes and compaction count.
func (st *Store) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return StoreStats{
		Segments:       st.set.Segments(),
		SegmentRecords: st.set.Len(),
		SegmentBytes:   st.set.Bytes(),
		WALRecords:     st.walRecords,
		WALBytes:       st.walSize,
		Compactions:    st.compactions,
	}
}

// Replay streams the whole durable corpus to apply — committed segments in
// sequence order first, then the WAL tail in append order. fromSegment
// tells the caller which tier a record came from; the caller is expected
// to dedup by content hash, since a crash between segment commit and WAL
// truncation legitimately leaves the same records in both tiers. A torn
// final WAL line is truncated in place; corruption anywhere else — in a
// segment or mid-WAL — is an error (this is the only copy of the corpus;
// skipping records would fake data loss as success). Must be called before
// the first append.
func (st *Store) Replay(apply func(r *corpus.Record, fromSegment bool) error) (segN, walN int, err error) {
	return st.replay(func(r *corpus.Record, seg *corpus.Segment, _ int) error {
		return apply(r, seg != nil)
	})
}

// replay is Replay that also says where each segment record lives: record
// rec of seg, which stays open in the store's set. seg is nil for WAL
// records. Every record is CRC-checked and fully decoded either way — that
// is what proves the durable corpus intact at boot.
func (st *Store) replay(apply func(r *corpus.Record, seg *corpus.Segment, rec int) error) (segN, walN int, err error) {
	set, err := corpus.OpenSet(st.dir)
	if err != nil {
		return 0, 0, err
	}
	st.mu.Lock()
	st.set = set
	st.mu.Unlock()
	for k := 0; k < set.Segments(); k++ {
		seg := set.Segment(k)
		if err := seg.Iterate(func(i int, r *corpus.Record) error { return apply(r, seg, i) }); err != nil {
			return set.Len(), 0, err
		}
	}
	walN, err = st.replayWAL(func(e walEntry) error {
		r, rerr := e.record()
		if rerr != nil {
			return rerr
		}
		return apply(r, nil, 0)
	})
	return set.Len(), walN, err
}

// replayWAL streams every intact WAL entry to apply, in append order,
// truncating a torn final line and recording the durable length and record
// count for subsequent appends and compaction.
func (st *Store) replayWAL(apply func(walEntry) error) (int, error) {
	f, err := os.OpenFile(st.walPath(), os.O_RDONLY, 0)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("service: open corpus wal: %w", err)
	}
	defer func() { _ = f.Close() }()

	br := bufio.NewReaderSize(f, 1<<20)
	var replayed int
	var goodBytes int64
	for {
		line, readErr := br.ReadBytes('\n')
		if len(line) > 0 {
			var e walEntry
			if jsonErr := json.Unmarshal(line, &e); jsonErr != nil {
				// A record that fails to parse is either a torn tail
				// (crash mid-append — tolerated and truncated) or genuine
				// corruption mid-file (fatal).
				if isLastLine(br, readErr) {
					break
				}
				return replayed, fmt.Errorf("service: corpus wal corrupt at byte %d: %w", goodBytes, jsonErr)
			}
			if applyErr := apply(e); applyErr != nil {
				return replayed, applyErr
			}
			replayed++
			goodBytes += int64(len(line))
		}
		if readErr != nil {
			if errors.Is(readErr, io.EOF) {
				break
			}
			return replayed, fmt.Errorf("service: read corpus wal: %w", readErr)
		}
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > goodBytes {
		if err := os.Truncate(st.walPath(), goodBytes); err != nil {
			return replayed, fmt.Errorf("service: truncate torn wal tail: %w", err)
		}
	}
	st.mu.Lock()
	st.walSize, st.walRecords = goodBytes, replayed
	st.mu.Unlock()
	return replayed, nil
}

// isLastLine reports whether the reader holds no further data: the line
// that just failed to parse was the file's tail.
func isLastLine(br *bufio.Reader, readErr error) bool {
	if readErr != nil {
		return true // the bad line itself ended at EOF (no trailing \n)
	}
	_, err := br.Peek(1)
	return errors.Is(err, io.EOF)
}

// ensureWALLocked lazily opens the WAL for appending. When this creates
// the file, the directory is fsynced too — without that, the first
// acknowledged sample's file-level Sync is not enough: the filename itself
// can vanish on power loss.
func (st *Store) ensureWALLocked() error {
	if st.wal != nil {
		return nil
	}
	_, statErr := os.Stat(st.walPath())
	created := errors.Is(statErr, os.ErrNotExist)
	f, err := os.OpenFile(st.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("service: open corpus wal: %w", err)
	}
	if created {
		if err := fsyncDir(st.dir); err != nil {
			_ = f.Close()
			return err
		}
	}
	st.wal = f
	return nil
}

// encodeEntries marshals samples into contiguous WAL lines.
func encodeEntries(entries []walEntry) ([]byte, error) {
	var buf []byte
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			return nil, fmt.Errorf("service: encode wal entry: %w", err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	return buf, nil
}

// appendLocked writes pre-encoded lines holding n records and fsyncs once.
// On a short write or failed sync the WAL is truncated back to the last
// durable offset, so the file never carries a torn record mid-file for a
// survivable error — replay's fatal mid-file corruption path stays
// reserved for real corruption.
func (st *Store) appendLocked(lines []byte, n int) error {
	if err := st.ensureWALLocked(); err != nil {
		return err
	}
	if _, err := walWrite(st.wal, lines); err != nil {
		st.truncateToLastGoodLocked()
		return fmt.Errorf("service: append corpus wal: %w", err)
	}
	if err := walSync(st.wal); err != nil {
		st.truncateToLastGoodLocked()
		return fmt.Errorf("service: sync corpus wal: %w", err)
	}
	st.walSize += int64(len(lines))
	st.walRecords += n
	st.maybeSignalCompactLocked()
	return nil
}

// truncateToLastGoodLocked discards a possibly-torn tail after a failed
// append, restoring the record-boundary invariant. Best effort: if the
// truncate itself fails the next boot's torn-tail handling still recovers.
func (st *Store) truncateToLastGoodLocked() {
	_ = os.Truncate(st.walPath(), st.walSize)
}

// AppendSample durably appends one accepted sample to the WAL. The write
// is fsynced before returning, so an acknowledged upload survives a crash.
func (st *Store) AppendSample(family, name string, hash [sha256.Size]byte, a *acfg.ACFG) error {
	return st.AppendBatch([]walEntry{{Family: family, Name: name, Hash: hex.EncodeToString(hash[:]), ACFG: a}}, nil)
}

// AppendBatch durably appends a batch of samples with a single group
// commit: one write, one fsync. Bulk import of n samples costs one fsync
// instead of n while every sample in the batch is still durable before the
// call returns. indexed, when non-nil, runs after the fsync and before the
// store lock is released — the server adds the samples to its corpus index
// there, so a compaction that reads these WAL records always finds their
// index entries to re-point.
func (st *Store) AppendBatch(entries []walEntry, indexed func()) error {
	if len(entries) == 0 {
		return nil
	}
	lines, err := encodeEntries(entries)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.appendLocked(lines, len(entries)); err != nil {
		return err
	}
	if indexed != nil {
		indexed()
	}
	return nil
}

// EnableCompaction starts the background compactor: once the WAL's durable
// prefix exceeds thresholdBytes, it is folded into a binary segment and
// the WAL is tail-swapped. onDone (optional) observes every compaction
// attempt — err is nil on success — so callers can publish telemetry;
// compaction errors never affect the append path. Call at most once, after
// Replay and before serving traffic.
func (st *Store) EnableCompaction(thresholdBytes int64, onDone func(error)) {
	if thresholdBytes <= 0 {
		return
	}
	st.mu.Lock()
	st.compactBytes = thresholdBytes
	st.compactCh = make(chan struct{}, 1)
	st.stopCh = make(chan struct{})
	st.onCompact = onDone
	pending := st.walSize >= thresholdBytes
	st.mu.Unlock()

	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		for {
			select {
			case <-st.stopCh:
				return
			case <-st.compactCh:
				err := st.Compact()
				if st.onCompact != nil {
					st.onCompact(err)
				}
			}
		}
	}()
	if pending {
		st.signalCompact()
	}
}

// maybeSignalCompactLocked nudges the compactor when the WAL has grown
// past the threshold. Non-blocking: a signal already in flight is enough.
func (st *Store) maybeSignalCompactLocked() {
	if st.compactCh != nil && st.compactBytes > 0 && st.walSize >= st.compactBytes {
		select {
		case st.compactCh <- struct{}{}:
		default:
		}
	}
}

func (st *Store) signalCompact() {
	select {
	case st.compactCh <- struct{}{}:
	default:
	}
}

// Compact folds the WAL's current durable prefix into a new committed
// segment, then tail-swaps the WAL. Exported so tests and shutdown paths
// can force a deterministic compaction; the background compactor calls it
// too. Appends proceed concurrently — only the final tail swap holds the
// store lock.
//
// Crash safety: the segment commit (stage, fsync, rename, fsync dir)
// happens strictly before the WAL swap. A crash after commit but before
// the swap leaves the same records in both tiers; boot replay dedups by
// content hash and the next compaction skips already-segmented hashes, so
// nothing is double-counted and the duplicate prefix is dropped from the
// WAL the next time compaction runs.
//
// Once the segment is committed it joins the store's open set, and the
// attached index re-points the folded samples at it, dropping their
// decoded ACFGs: from then on they are read from disk on demand.
func (st *Store) Compact() error {
	st.compactMu.Lock()
	defer st.compactMu.Unlock()
	st.mu.Lock()
	upTo := st.walSize
	nRecords := st.walRecords
	index := st.index
	st.mu.Unlock()
	if nRecords == 0 {
		return nil
	}

	recs, err := st.readWALPrefix(upTo)
	if err != nil {
		return err
	}
	// Skip records whose content already lives in a segment (a WAL prefix
	// re-read after a crash between segment commit and tail swap). The
	// attached index is what knows; a store no server is attached to
	// compacts every record it reads.
	fresh := recs[:0]
	for _, r := range recs {
		if index == nil || !index.inSegment(r.Hash) {
			fresh = append(fresh, r)
		}
	}
	if len(fresh) > 0 {
		seq, err := corpus.NextSeq(st.dir)
		if err != nil {
			return err
		}
		w, err := corpus.NewWriter(st.dir, seq)
		if err != nil {
			return err
		}
		for _, r := range fresh {
			if err := w.Append(r); err != nil {
				w.Abort()
				return err
			}
		}
		segPath, err := w.Commit()
		if err != nil {
			return err
		}
		seg, err := corpus.OpenSegment(segPath)
		if err != nil {
			return fmt.Errorf("service: reopen committed segment: %w", err)
		}
		st.mu.Lock()
		st.set.Append(seg)
		st.mu.Unlock()
		if index != nil {
			index.moveToSegment(seg, fresh)
		}
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.swapWALTailLocked(upTo); err != nil {
		return err
	}
	st.walRecords -= nRecords
	st.compactions++
	return nil
}

// readWALPrefix decodes the first upTo bytes of the WAL into records.
// Every line inside the durable prefix is intact by invariant, so any
// parse failure here is real corruption.
func (st *Store) readWALPrefix(upTo int64) ([]*corpus.Record, error) {
	f, err := os.Open(st.walPath())
	if err != nil {
		return nil, fmt.Errorf("service: open corpus wal for compaction: %w", err)
	}
	defer func() { _ = f.Close() }()
	br := bufio.NewReaderSize(io.LimitReader(f, upTo), 1<<20)
	var recs []*corpus.Record
	for {
		line, readErr := br.ReadBytes('\n')
		if len(line) > 0 {
			var e walEntry
			if err := json.Unmarshal(line, &e); err != nil {
				return nil, fmt.Errorf("service: corpus wal corrupt during compaction: %w", err)
			}
			r, err := e.record()
			if err != nil {
				return nil, err
			}
			recs = append(recs, r)
		}
		if readErr != nil {
			if errors.Is(readErr, io.EOF) {
				break
			}
			return nil, fmt.Errorf("service: read corpus wal: %w", readErr)
		}
	}
	return recs, nil
}

// swapWALTailLocked atomically replaces the WAL with its own tail
// [upTo, end): the tail is staged to a temp file, fsynced, renamed over
// corpus.wal, and the directory is fsynced — the same durability protocol
// as segment commit. The live append handle is reopened on the new file.
func (st *Store) swapWALTailLocked(upTo int64) error {
	src, err := os.Open(st.walPath())
	if err != nil {
		return fmt.Errorf("service: open corpus wal for tail swap: %w", err)
	}
	if _, err := src.Seek(upTo, io.SeekStart); err != nil {
		_ = src.Close()
		return fmt.Errorf("service: seek corpus wal tail: %w", err)
	}
	tmp, err := os.CreateTemp(st.dir, walFilename+".tmp-*")
	if err != nil {
		_ = src.Close()
		return fmt.Errorf("service: stage corpus wal tail: %w", err)
	}
	tailLen, err := io.Copy(tmp, src)
	_ = src.Close()
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("service: stage corpus wal tail: %w", err)
	}
	if st.wal != nil {
		_ = st.wal.Close()
		st.wal = nil
	}
	if err := os.Rename(tmp.Name(), st.walPath()); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("service: swap corpus wal tail: %w", err)
	}
	if err := fsyncDir(st.dir); err != nil {
		return err
	}
	st.walSize = tailLen
	return nil
}

// SaveModel atomically checkpoints m to <dir>/model.json.
func (st *Store) SaveModel(m *core.Model) error {
	return m.SaveFile(st.modelPath())
}

// LoadModel loads the model checkpoint, returning (nil, nil) when none
// exists yet.
func (st *Store) LoadModel() (*core.Model, error) {
	m, err := core.LoadFile(st.modelPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return m, err
}

// Close stops the compactor, closes the segments and the WAL handle, and
// drops the state directory lock. The Store must not be used afterwards,
// nor may anything still read segment-resident samples through it: the
// server cancels its training job before it closes the store.
func (st *Store) Close() error {
	if st.stopCh != nil {
		close(st.stopCh)
		st.wg.Wait()
		st.stopCh = nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var first error
	if err := st.set.Close(); err != nil {
		first = fmt.Errorf("service: close corpus segments: %w", err)
	}
	if st.wal != nil {
		if err := st.wal.Close(); err != nil && first == nil {
			first = fmt.Errorf("service: close corpus wal: %w", err)
		}
		st.wal = nil
	}
	if st.lock != nil {
		// Closing the descriptor releases the flock.
		if err := st.lock.Close(); err != nil && first == nil {
			first = fmt.Errorf("service: release state lock: %w", err)
		}
		st.lock = nil
	}
	return first
}

// AttachStore wires a state directory into the server: segments and the
// corpus WAL are replayed into the corpus index (deduplicated by content
// hash), the model checkpoint (when present) is installed, and from then on
// accepted samples are appended to the WAL and successful training runs
// are checkpointed. Replay decodes every record, but the index keeps a
// segment record only as its (segment, record) reference; WAL records stay
// decoded until the compactor folds them into a segment. Call it once,
// before serving traffic. It returns the number of replayed samples and
// whether a checkpointed model was installed.
func (s *Server) AttachStore(st *Store) (replayed int, modelLoaded bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store != nil {
		return 0, false, fmt.Errorf("service: store already attached")
	}
	_, _, err = st.replay(func(r *corpus.Record, seg *corpus.Segment, rec int) error {
		label, ok := s.labelOf[r.Family]
		if !ok {
			return fmt.Errorf("service: stored sample %q has family %q outside the server's universe", r.Name, r.Family)
		}
		e := entry{seg: seg, rec: int32(rec), label: int32(label), size: int32(r.ACFG.NumVertices())}
		if seg == nil {
			e = residentEntry(&dataset.Sample{Name: r.Name, Label: label, ACFG: r.ACFG})
		}
		// A duplicate is legitimate after a crash between segment commit
		// and WAL truncation: the same record exists in both tiers.
		if s.corpus.add(r.Hash, e) {
			replayed++
		}
		return nil
	})
	if err != nil {
		return replayed, false, err
	}
	st.mu.Lock()
	st.index = s.corpus
	st.mu.Unlock()
	s.setCorpusSizeLocked()
	m, err := st.LoadModel()
	if err != nil {
		return replayed, false, fmt.Errorf("service: load model checkpoint: %w", err)
	}
	if m != nil {
		if m.Config.Classes != len(s.families) {
			return replayed, false, fmt.Errorf("service: checkpointed model has %d classes, server has %d families",
				m.Config.Classes, len(s.families))
		}
		if err := s.installModelLocked(m, "checkpoint"); err != nil {
			return replayed, false, err
		}
		modelLoaded = true
	}
	s.store = st
	s.publishCorpusGaugesLocked()
	return replayed, modelLoaded, nil
}

// publishCorpusGaugesLocked mirrors the attached store's tier shape onto
// the corpus metrics; callers hold s.mu (which guards the store pointer).
func (s *Server) publishCorpusGaugesLocked() {
	if s.store == nil {
		return
	}
	stats := s.store.Stats()
	s.corpusMetrics.SetState(stats.Segments, stats.SegmentRecords, stats.SegmentBytes, stats.WALRecords, stats.WALBytes)
}

// EnableCompaction starts the attached store's background WAL-to-segment
// compactor with the given size threshold. Every attempt's outcome lands
// in the corpus metrics; failures are additionally reported to logf
// (optional) and never affect the ingest path. No-op when no store is
// attached or the threshold is not positive.
func (s *Server) EnableCompaction(thresholdBytes int64, logf func(format string, args ...any)) {
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	if st == nil {
		return
	}
	st.EnableCompaction(thresholdBytes, func(err error) {
		s.corpusMetrics.CompactionFinished(err != nil)
		stats := st.Stats()
		s.corpusMetrics.SetState(stats.Segments, stats.SegmentRecords, stats.SegmentBytes, stats.WALRecords, stats.WALBytes)
		if err != nil && logf != nil {
			logf("corpus compaction: %v", err)
		}
	})
}

// ImportCorpus bulk-adds every sample of d to the server corpus (and the
// attached WAL, when present) with one group commit: a single fsync covers
// the whole batch instead of one per sample. Samples whose ACFG content
// hash is already in the corpus are skipped. d's family names must all
// exist in the server's universe; labels are remapped by name.
func (s *Server) ImportCorpus(d *dataset.Dataset) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var entries []walEntry
	var hashes [][sha256.Size]byte
	var add []entry
	inBatch := make(map[[sha256.Size]byte]struct{})
	for _, smp := range d.Samples {
		family := d.Families[smp.Label]
		label, ok := s.labelOf[family]
		if !ok {
			return fmt.Errorf("service: import sample %q: unknown family %q", smp.Name, family)
		}
		hash := smp.ACFG.ContentHash()
		if _, dup := inBatch[hash]; dup || s.corpus.contains(hash) {
			s.corpusMetrics.Deduplicated()
			continue
		}
		inBatch[hash] = struct{}{}
		entries = append(entries, walEntry{Family: family, Name: smp.Name, Hash: hex.EncodeToString(hash[:]), ACFG: smp.ACFG})
		hashes = append(hashes, hash)
		add = append(add, residentEntry(&dataset.Sample{Name: smp.Name, Label: label, ACFG: smp.ACFG}))
	}
	if err := s.commitLocked(entries, func() {
		for i, e := range add {
			s.corpus.add(hashes[i], e)
		}
	}); err != nil {
		return err
	}
	s.setCorpusSizeLocked()
	s.publishCorpusGaugesLocked()
	return nil
}

// commitLocked makes entries durable in the attached store's WAL, if any,
// then runs index, which adds them to the corpus index. With a store, index
// runs under the store lock right after the fsync, so no compaction can
// read the records before their entries exist. Callers hold s.mu.
func (s *Server) commitLocked(entries []walEntry, index func()) error {
	if s.store == nil {
		index()
		return nil
	}
	return s.store.AppendBatch(entries, index)
}

// setCorpusSizeLocked sets the per-family corpus gauge to the corpus's
// counts; callers hold s.mu.
func (s *Server) setCorpusSizeLocked() {
	counts := s.corpus.CountByClass()
	for i, f := range s.families {
		s.corpusSize.With(f).Set(float64(counts[i]))
	}
}

// Close gracefully quiesces the server: it cancels any running training
// job and waits for it, writes a final model checkpoint, and releases the
// state directory. Safe to call when no store is attached.
func (s *Server) Close() error {
	s.CancelTraining()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store == nil {
		return nil
	}
	var first error
	if s.model != nil {
		if err := s.store.SaveModel(s.model); err != nil {
			first = err
		}
	}
	if err := s.store.Close(); err != nil && first == nil {
		first = err
	}
	s.store = nil
	return first
}
