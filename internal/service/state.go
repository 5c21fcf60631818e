package service

import (
	"crypto/sha256"
	"errors"
	"fmt"
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
//	<dir>/LOCK                 exclusive flock guarding the directory
//	<dir>/corpus-NNNNNN.seg    corpus segments: record frames, one codec
//	<dir>/corpus-NNNNNN.idx    a sealed segment's offset index
//	<dir>/model.json           atomic checkpoint of the serving model
//
// An accepted sample is appended as a record frame to the open segment —
// the newest .seg, which has no .idx yet and is the write-ahead log — and
// fsynced per request, or once per bulk import. When the open segment
// passes the compaction threshold (or on Compact) it is sealed in line,
// under the store lock: its .idx is written from the frame offsets the
// writer already holds (temp file, fsync, rename, directory fsync — the
// rename is the commit point), and the next append opens the next
// sequence number. No record is ever copied between files, so every stored
// sample stays at one (file, frame offset) for the store's life, which is
// how the attached server's index addresses it. A failed append is cut back
// to the last durable frame; at boot a torn final frame of an unsealed
// segment is cut off, every unsealed segment but the newest is sealed, and
// corruption anywhere else is fatal.
//
// Every segment file stays open for reading for the store's life.
type Store struct {
	dir  string
	lock *os.File

	mu    sync.Mutex
	files []*corpus.Segment // every segment file in sequence order, for reading
	open  *corpus.Writer    // the last of files while it is unsealed; nil after a seal until the next append

	sealed       int // sealed segments, their records and bytes
	sealedRecs   int
	sealedBytes  int64
	compactBytes int64
	compactions  int
	onSeal       func(error)
}

const (
	modelFilename = "model.json"
	lockFilename  = "LOCK"
	// legacyWALFilename is the JSONL write-ahead log of earlier versions.
	// No code reads it: OpenStore refuses a directory that holds one.
	legacyWALFilename = "corpus.wal"
)

// ErrStateDirLocked reports that another process holds the state
// directory's exclusive lock. magic-server maps it to exit code 2.
var ErrStateDirLocked = errors.New("state directory locked by another process")

// Fault-injection seams for durability regression tests. Production always
// runs the plain operations.
var (
	walSync  = func(w *corpus.Writer) error { return w.Sync() }
	fsyncDir = corpus.SyncDir
)

// OpenStore opens (creating if needed) a state directory and takes its
// exclusive lock; a second process pointed at the same directory gets
// ErrStateDirLocked instead of silently interleaving appends. Leftover
// temporaries from interrupted atomic writes (model checkpoint, index
// staging) are swept away. A directory holding a JSONL corpus.wal from an
// earlier version is refused untouched.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: open state dir: %w", err)
	}
	legacy := filepath.Join(dir, legacyWALFilename)
	if _, err := os.Lstat(legacy); err == nil {
		return nil, fmt.Errorf("service: state dir holds %s, a JSONL corpus log this version no longer reads", legacy)
	}
	lock, err := lockStateDir(dir)
	if err != nil {
		return nil, err
	}
	if stale, err := filepath.Glob(filepath.Join(dir, modelFilename+".tmp-*")); err == nil {
		for _, f := range stale {
			_ = os.Remove(f)
		}
	}
	if err := corpus.SweepStray(dir); err != nil {
		_ = lock.Close()
		return nil, err
	}
	return &Store{dir: dir, lock: lock}, nil
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

func (st *Store) modelPath() string { return filepath.Join(st.dir, modelFilename) }

// StoreStats is a point-in-time snapshot of the storage tier, surfaced on
// /healthz and as metrics. The WAL is the open segment.
type StoreStats struct {
	Segments       int
	SegmentRecords int
	SegmentBytes   int64
	WALRecords     int
	WALBytes       int64
	Compactions    int
}

// Stats returns a snapshot of sealed and open segment sizes and the seal
// count.
func (st *Store) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	stats := StoreStats{
		Segments:       st.sealed,
		SegmentRecords: st.sealedRecs,
		SegmentBytes:   st.sealedBytes,
		Compactions:    st.compactions,
	}
	if st.open != nil {
		stats.WALRecords, stats.WALBytes = st.open.Count(), st.open.Size()
	}
	return stats
}

// Replay streams the whole durable corpus to apply, segment files in
// sequence order, each in append order. fromSegment tells the caller
// whether a record lies in a sealed segment once Replay returns or in the
// open one. A torn final frame of an unsealed segment is cut off in place;
// corruption anywhere else is an error (this is the only copy of the
// corpus; skipping records would fake data loss as success). Every
// unsealed segment but the newest — a crash came after the next segment
// was opened but before this one's seal committed — is sealed here. Must be
// called before the first append.
func (st *Store) Replay(apply func(r *corpus.Record, fromSegment bool) error) (segN, walN int, err error) {
	return st.replay(func(r *corpus.Record, _ *corpus.Segment, _ int64, sealed bool) error {
		return apply(r, sealed)
	})
}

// replay is Replay that also says where each record lives: the frame at
// byte off of seg, which stays open in the store. Every record is
// CRC-checked and fully decoded either way — that is what proves the
// durable corpus intact at boot.
func (st *Store) replay(apply func(r *corpus.Record, seg *corpus.Segment, off int64, sealed bool) error) (segN, walN int, err error) {
	paths, err := corpus.ListSegments(st.dir)
	if err != nil {
		return 0, 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for k, path := range paths {
		if err := st.replayFileLocked(path, k == len(paths)-1, apply); err != nil {
			return st.sealedRecs, 0, err
		}
	}
	if st.open != nil {
		walN = st.open.Count()
	}
	return st.sealedRecs, walN, nil
}

// replayFileLocked replays one segment file and leaves it open for
// reading; an unsealed one is resumed, and sealed unless it is the last.
func (st *Store) replayFileLocked(path string, last bool, apply func(*corpus.Record, *corpus.Segment, int64, bool) error) error {
	sealed, err := corpus.Sealed(path)
	if err != nil {
		return err
	}
	if sealed {
		seg, err := corpus.OpenSegment(path)
		if err != nil {
			return err
		}
		st.files = append(st.files, seg)
		st.sealed++
		st.sealedRecs += seg.Len()
		st.sealedBytes += seg.Size()
		return seg.Iterate(func(i int, r *corpus.Record) error { return apply(r, seg, seg.Offset(i), true) })
	}
	seg, err := corpus.OpenReader(path)
	if err != nil {
		return err
	}
	st.files = append(st.files, seg)
	w, err := corpus.ResumeWriter(path, func(off int64, r *corpus.Record) error { return apply(r, seg, off, !last) })
	if err != nil {
		return err
	}
	st.open = w
	if last {
		return nil
	}
	return st.sealLocked()
}

// ensureOpenLocked opens the next segment when none is open. Creating it
// fsyncs the directory too — without that, the first acknowledged sample's
// file-level sync is not enough: the filename itself can vanish on power
// loss.
func (st *Store) ensureOpenLocked() error {
	if st.open != nil {
		return nil
	}
	seq, err := corpus.NextSeq(st.dir)
	if err != nil {
		return err
	}
	w, err := corpus.NewWriter(st.dir, seq)
	if err != nil {
		return err
	}
	if err := fsyncDir(st.dir); err != nil {
		w.Abort()
		return err
	}
	seg, err := corpus.OpenReader(corpus.SegmentPath(st.dir, seq))
	if err != nil {
		w.Abort()
		return err
	}
	st.files = append(st.files, seg)
	st.open = w
	return nil
}

// append durably appends recs to the open segment with a single group
// commit — n frames, one fsync — and returns where each landed: the
// segment's read handle and every frame offset. On a failed write or sync
// the segment is cut back to its last durable frame, so it never carries a
// torn record mid-file for a survivable error. A segment the batch pushed
// past the threshold is sealed before the lock is released; the seal's
// outcome goes to onSeal and never fails the append.
func (st *Store) append(recs []*corpus.Record) (*corpus.Segment, []int64, error) {
	st.mu.Lock()
	seg, offs, err := st.appendLocked(recs)
	report := st.sealIfFullLocked()
	st.mu.Unlock()
	report()
	return seg, offs, err
}

func (st *Store) appendLocked(recs []*corpus.Record) (*corpus.Segment, []int64, error) {
	if err := st.ensureOpenLocked(); err != nil {
		return nil, nil, err
	}
	w := st.open
	first := w.Count()
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			w.Rollback()
			return nil, nil, fmt.Errorf("service: append corpus segment: %w", err)
		}
	}
	if err := walSync(w); err != nil {
		w.Rollback()
		return nil, nil, fmt.Errorf("service: sync corpus segment: %w", err)
	}
	offs := make([]int64, len(recs))
	for i := range offs {
		offs[i] = w.Offset(first + i)
	}
	return st.files[len(st.files)-1], offs, nil
}

// AppendSample durably appends one accepted sample. The frame is fsynced
// before returning, so an acknowledged upload survives a crash.
func (st *Store) AppendSample(family, name string, hash [sha256.Size]byte, a *acfg.ACFG) error {
	_, _, err := st.append([]*corpus.Record{{Family: family, Name: name, Hash: hash, ACFG: a}})
	return err
}

// EnableCompaction seals the open segment whenever an append leaves it at
// thresholdBytes or more — and right away, if it already is. onSeal
// (optional) observes every such seal, err nil on success, after the store
// lock is released. Call at most once, after Replay and before serving
// traffic.
func (st *Store) EnableCompaction(thresholdBytes int64, onSeal func(error)) {
	if thresholdBytes <= 0 {
		return
	}
	st.mu.Lock()
	st.compactBytes, st.onSeal = thresholdBytes, onSeal
	report := st.sealIfFullLocked()
	st.mu.Unlock()
	report()
}

// sealIfFullLocked seals the open segment once it has reached the
// threshold, and returns what reports the seal to onSeal: the caller runs
// it once the store lock is released.
func (st *Store) sealIfFullLocked() (report func()) {
	if st.compactBytes <= 0 || st.open == nil || st.open.Count() == 0 || st.open.Size() < st.compactBytes {
		return func() {}
	}
	err, onSeal := st.sealLocked(), st.onSeal
	return func() {
		if onSeal != nil {
			onSeal(err)
		}
	}
}

// Compact seals the open segment now, whatever its size; a no-op when it
// holds no record.
func (st *Store) Compact() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.open == nil || st.open.Count() == 0 {
		return nil
	}
	return st.sealLocked()
}

// sealLocked commits the open segment's index. Nothing is read, copied or
// re-pointed: the index already addresses its records by frame offset.
// Once the index is published the segment is sealed — even if the
// directory fsync then failed — and the next append opens a new one;
// before that a failure leaves it open, to be sealed by a later attempt.
func (st *Store) sealLocked() error {
	w := st.open
	path, err := w.Commit()
	if path == "" {
		return err
	}
	st.open = nil
	st.sealed++
	st.sealedRecs += w.Count()
	st.sealedBytes += w.Size()
	if err == nil {
		st.compactions++
	}
	return err
}

// SaveModel atomically checkpoints m to <dir>/model.json.
func (st *Store) SaveModel(m *core.Weights) error {
	return m.SaveFile(st.modelPath())
}

// LoadModel loads the model checkpoint, returning (nil, nil) when none
// exists yet.
func (st *Store) LoadModel() (*core.Weights, error) {
	m, err := core.LoadWeightsFile(st.modelPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return m, err
}

// Close closes the segment files and drops the state directory lock. It
// does not seal: the open segment stays the open segment for the next
// boot. The Store must not be used afterwards, nor may anything still read
// samples through it: the server cancels its training job before it closes
// the store.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	var first error
	if st.open != nil {
		if err := st.open.Close(); err != nil {
			first = fmt.Errorf("service: close open corpus segment: %w", err)
		}
		st.open = nil
	}
	for _, seg := range st.files {
		if err := seg.Close(); err != nil && first == nil {
			first = fmt.Errorf("service: close corpus segment: %w", err)
		}
	}
	st.files = nil
	if st.lock != nil {
		// Closing the descriptor releases the flock.
		if err := st.lock.Close(); err != nil && first == nil {
			first = fmt.Errorf("service: release state lock: %w", err)
		}
		st.lock = nil
	}
	return first
}

// AttachStore wires a state directory into the server: every segment is
// replayed into the corpus index, the model checkpoint (when present) is
// installed, and from then on accepted samples are appended to the open
// segment and successful training runs are checkpointed. Replay decodes
// every record, but the index keeps only where it lives — (segment file,
// frame offset) — and a label and size. Call it once, before serving
// traffic. It returns the number of replayed samples and whether a
// checkpointed model was installed.
func (s *Server) AttachStore(st *Store) (replayed int, modelLoaded bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store != nil {
		return 0, false, fmt.Errorf("service: store already attached")
	}
	_, _, err = st.replay(func(r *corpus.Record, seg *corpus.Segment, off int64, _ bool) error {
		label, ok := s.labelOf[r.Family]
		if !ok {
			return fmt.Errorf("service: stored sample %q has family %q outside the server's universe", r.Name, r.Family)
		}
		if s.corpus.add(r.Hash, storedEntry(seg, off, label, r.ACFG)) {
			replayed++
		}
		return nil
	})
	if err != nil {
		return replayed, false, err
	}
	s.setCorpusSizeLocked()
	m, err := st.LoadModel()
	if err != nil {
		return replayed, false, fmt.Errorf("service: load model checkpoint: %w", err)
	}
	if m != nil {
		if err := s.checkModel(m); err != nil {
			return replayed, false, fmt.Errorf("service: checkpointed %w", err)
		}
		s.installModelLocked(m, "checkpoint")
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

// EnableCompaction seals the attached store's open segment whenever it
// reaches thresholdBytes. Every automatic seal's outcome lands in the
// corpus metrics; failures are additionally reported to logf (optional)
// and never affect the ingest path. No-op when no store is attached or the
// threshold is not positive.
func (s *Server) EnableCompaction(thresholdBytes int64, logf func(format string, args ...any)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store == nil {
		return
	}
	s.store.EnableCompaction(thresholdBytes, func(err error) {
		s.corpusMetrics.CompactionFinished(err != nil)
		if err != nil && logf != nil {
			logf("corpus seal: %v", err)
		}
	})
	s.publishCorpusGaugesLocked()
}

// ImportCorpus bulk-adds every sample of d to the server corpus (and the
// attached store, when present) with one group commit: a single fsync covers
// the whole batch instead of one per sample. Samples whose ACFG content
// hash is already in the corpus are skipped. d's family names must all
// exist in the server's universe; labels are remapped by name.
func (s *Server) ImportCorpus(d *dataset.Dataset) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var recs []*corpus.Record
	inBatch := make(map[[sha256.Size]byte]struct{})
	for _, smp := range d.Samples {
		family := d.Families[smp.Label]
		if _, ok := s.labelOf[family]; !ok {
			return fmt.Errorf("service: import sample %q: unknown family %q", smp.Name, family)
		}
		hash := smp.ACFG.ContentHash()
		if _, dup := inBatch[hash]; dup || s.corpus.contains(hash) {
			s.corpusMetrics.Deduplicated()
			continue
		}
		inBatch[hash] = struct{}{}
		recs = append(recs, &corpus.Record{Family: family, Name: smp.Name, Hash: hash, ACFG: smp.ACFG})
	}
	if err := s.commitLocked(recs); err != nil {
		return err
	}
	s.setCorpusSizeLocked()
	s.publishCorpusGaugesLocked()
	return nil
}

// commitLocked adds recs, whose families are in the universe, to the
// corpus. With a store they are made durable first, and the index points
// at where they landed; without one the index holds them resident.
// Callers hold s.mu.
func (s *Server) commitLocked(recs []*corpus.Record) error {
	if len(recs) == 0 {
		return nil
	}
	if s.store == nil {
		for _, r := range recs {
			s.corpus.add(r.Hash, residentEntry(&dataset.Sample{Name: r.Name, Label: s.labelOf[r.Family], ACFG: r.ACFG}))
		}
		return nil
	}
	seg, offs, err := s.store.append(recs)
	if err != nil {
		return err
	}
	for i, r := range recs {
		s.corpus.add(r.Hash, storedEntry(seg, offs[i], s.labelOf[r.Family], r.ACFG))
	}
	return nil
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
