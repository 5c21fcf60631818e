package service

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/acfg"
	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/corpus"
	"repro/internal/dataset"
)

// asmACFG runs the extraction pipeline on a listing, for tests that talk
// to the Store directly instead of through the HTTP surface.
func asmACFG(t *testing.T, asmText string) *acfg.ACFG {
	t.Helper()
	prog, err := asm.ParseString(asmText)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg.Build(prog)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return acfg.FromCFG(c)
}

// appendVariant appends one distinct sample to the store directly.
func appendVariant(t *testing.T, st *Store, family string, i int) *acfg.ACFG {
	t.Helper()
	a := asmACFG(t, variant(chainProgram, i))
	if err := st.AppendSample(family, fmt.Sprintf("%s-%03d", family, i), a.ContentHash(), a); err != nil {
		t.Fatal(err)
	}
	return a
}

// replayNames replays a freshly opened store over dir and returns the
// record names in replay order.
func replayNames(t *testing.T, dir string) []string {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	var names []string
	if _, _, err := st.Replay(func(r *corpus.Record, fromSegment bool) error {
		names = append(names, r.Name)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return names
}

// TestWALCreationFsyncsDir is the regression test for the missing
// directory fsync: creating the open segment must be followed by an fsync
// of the state directory, or the filename itself can vanish on power loss
// even though the first sample's frame was synced.
func TestWALCreationFsyncsDir(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })

	var dirSyncs []string
	orig := fsyncDir
	fsyncDir = func(d string) error {
		dirSyncs = append(dirSyncs, d)
		return corpus.SyncDir(d)
	}
	t.Cleanup(func() { fsyncDir = orig })

	appendVariant(t, st, "clean", 0)
	found := false
	for _, d := range dirSyncs {
		if d == dir {
			found = true
		}
	}
	if !found {
		t.Fatal("first append created the open segment without fsyncing the state directory")
	}

	// Once the file exists, appends must not pay the directory fsync again.
	dirSyncs = nil
	appendVariant(t, st, "clean", 1)
	if len(dirSyncs) != 0 {
		t.Fatalf("append to the existing open segment fsynced the directory %d times, want 0", len(dirSyncs))
	}
}

// TestTornAppendTruncatedBack is the regression test for torn records: an
// append whose write lands only in part, or whose fsync fails, must cut the
// open segment back to the last durable frame boundary. Left in place, the
// torn bytes would be buried mid-file by the NEXT successful append,
// turning a survivable error into fatal corruption at replay.
func TestTornAppendTruncatedBack(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendVariant(t, st, "clean", 0)
	path := openSegmentPath(t, dir)
	durable, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	orig := walSync
	t.Cleanup(func() { walSync = orig })

	// Short write: half the frame lands, then the disk "fails".
	walSync = func(w *corpus.Writer) error {
		if err := os.Truncate(path, (durable.Size()+w.Size())/2); err != nil {
			t.Fatal(err)
		}
		return errors.New("injected write failure")
	}
	a := asmACFG(t, variant(chainProgram, 1))
	if err := st.AppendSample("clean", "torn-write", a.ContentHash(), a); err == nil {
		t.Fatal("append with failing write reported success")
	}

	// Failed fsync: all bytes land but durability is unknown.
	walSync = func(*corpus.Writer) error { return errors.New("injected sync failure") }
	a2 := asmACFG(t, variant(chainProgram, 2))
	if err := st.AppendSample("clean", "torn-sync", a2.ContentHash(), a2); err == nil {
		t.Fatal("append with failing sync reported success")
	}
	walSync = orig

	// The segment must sit exactly at the last good boundary...
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != durable.Size() || st.Stats().WALBytes != durable.Size() {
		t.Fatalf("open segment is %d bytes (store says %d) after failed appends, want the durable %d",
			info.Size(), st.Stats().WALBytes, durable.Size())
	}
	// ...so the next append lands on a clean boundary.
	appendVariant(t, st, "clean", 3)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	names := replayNames(t, dir)
	want := []string{"clean-000", "clean-003"}
	if len(names) != len(want) || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("replay after torn appends = %v, want %v", names, want)
	}
}

// TestImportCorpusGroupCommit is the regression test for O(n) fsyncs on
// bulk import: importing n samples must cost exactly one fsync of the open
// segment, while the single-sample ingest path keeps its per-sample fsync.
func TestImportCorpusGroupCommit(t *testing.T) {
	dir := t.TempDir()
	srv, client, _, _ := bootStatefulServer(t, dir)

	syncs := 0
	orig := walSync
	walSync = func(w *corpus.Writer) error { syncs++; return w.Sync() }
	t.Cleanup(func() { walSync = orig })

	d := dataset.New([]string{"clean", "dirty"})
	for i := 0; i < 8; i++ {
		d.Add(&dataset.Sample{
			Name:  fmt.Sprintf("bulk-%03d", i),
			Label: i % 2,
			ACFG:  asmACFG(t, variant(chainProgram, 10+i)),
		})
	}
	if err := srv.ImportCorpus(d); err != nil {
		t.Fatal(err)
	}
	if syncs != 1 {
		t.Fatalf("importing 8 samples cost %d fsyncs, want 1 group commit", syncs)
	}

	// Per-sample durability on the upload path is untouched.
	syncs = 0
	for i := 0; i < 2; i++ {
		if err := client.AddSampleASM("clean", "", variant(chainProgram, 30+i)); err != nil {
			t.Fatal(err)
		}
	}
	if syncs != 2 {
		t.Fatalf("2 uploads cost %d fsyncs, want 2 (one per acknowledged sample)", syncs)
	}
}

// TestStateDirExclusiveLock is the regression test for interleaved appends:
// two processes pointed at one -state-dir must not both append. The second
// OpenStore gets ErrStateDirLocked (magic-server maps it to exit 2), and
// the lock dies with the holder.
func TestStateDirExclusiveLock(t *testing.T) {
	dir := t.TempDir()
	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); !errors.Is(err, ErrStateDirLocked) {
		t.Fatalf("second OpenStore err = %v, want ErrStateDirLocked", err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionRoundTrip drives sealing directly: the open segment's
// records become a sealed segment's without moving, the next append opens
// a new segment, order survives, and a second generation lands in its own
// segment.
func TestCompactionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		appendVariant(t, st, "clean", i)
	}
	before, err := os.ReadFile(corpus.SegmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Segments != 1 || stats.SegmentRecords != 4 || stats.WALRecords != 0 || stats.WALBytes != 0 {
		t.Fatalf("after the seal: %+v, want 1 segment, 4 records, no open segment", stats)
	}
	if after, err := os.ReadFile(corpus.SegmentPath(dir, 1)); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("sealing rewrote the segment (%v)", err)
	}

	// Second generation: new appends open segment 2, then seal it.
	for i := 4; i < 6; i++ {
		appendVariant(t, st, "clean", i)
	}
	if st.Stats().WALRecords != 2 {
		t.Fatalf("WAL records = %d, want 2", st.Stats().WALRecords)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	stats = st.Stats()
	if stats.Segments != 2 || stats.SegmentRecords != 6 || stats.WALRecords != 0 {
		t.Fatalf("after the second seal: %+v, want 2 segments, 6 records", stats)
	}
	if stats.Compactions != 2 {
		t.Fatalf("compactions = %d, want 2", stats.Compactions)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	names := replayNames(t, dir)
	if len(names) != 6 {
		t.Fatalf("replayed %d records, want 6", len(names))
	}
	for i, name := range names {
		if want := fmt.Sprintf("clean-%03d", i); name != want {
			t.Fatalf("replay[%d] = %q, want %q (order must survive sealing)", i, name, want)
		}
	}
}

// replayCounts replays dir in a fresh store and returns what Replay
// reports, the record names in order, and the store's stats afterwards.
func replayCounts(t *testing.T, dir string) (segN, walN int, names []string, stats StoreStats) {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	segN, walN, err = st.Replay(func(r *corpus.Record, _ bool) error {
		names = append(names, r.Name)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return segN, walN, names, st.Stats()
}

// TestCrashBeforeOlderSealCommittedReplaysBoth: a crash after segment
// seq+1 was opened but before seq's index committed leaves two unsealed
// segments. Boot replays both in order, seals the older one, keeps the
// newer one open, and counts nothing twice.
func TestCrashBeforeOlderSealCommittedReplaysBoth(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		appendVariant(t, st, "clean", i)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 5; i++ {
		appendVariant(t, st, "clean", i)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The "crash": segment 1's index never made it to disk.
	if err := os.Remove(strings.TrimSuffix(corpus.SegmentPath(dir, 1), ".seg") + ".idx"); err != nil {
		t.Fatal(err)
	}

	segN, walN, names, stats := replayCounts(t, dir)
	if segN != 3 || walN != 2 || fmt.Sprint(names) != "[clean-000 clean-001 clean-002 clean-003 clean-004]" {
		t.Fatalf("replay = %d sealed + %d open records %v, want 3 + 2 in order", segN, walN, names)
	}
	if stats.Segments != 1 || stats.SegmentRecords != 3 || stats.WALRecords != 2 {
		t.Fatalf("after boot: %+v, want segment 1 sealed and segment 2 open", stats)
	}
	if sealed, err := corpus.Sealed(corpus.SegmentPath(dir, 1)); err != nil || !sealed {
		t.Fatalf("boot left segment 1 unsealed (%v)", err)
	}
	// A second boot finds the state the first one committed.
	if segN, walN, names, _ = replayCounts(t, dir); segN != 3 || walN != 2 || len(names) != 5 {
		t.Fatalf("second boot: %d + %d records %v", segN, walN, names)
	}

	srv, _, replayed, _ := bootStatefulServer(t, dir)
	if replayed != 5 || srv.corpus.Len() != 5 {
		t.Fatalf("server replayed %d, holds %d; want 5", replayed, srv.corpus.Len())
	}
}

// TestLeftoverTempIndexResealed: a crash while the index was staged leaves
// a temp .idx and an unsealed segment. The temp file is swept, the segment
// replays as the open one, and the next seal commits its index.
func TestLeftoverTempIndexResealed(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		appendVariant(t, st, "clean", i)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "corpus-000001.tmp-idx")
	if err := os.WriteFile(tmp, []byte("half an index"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, client, replayed, _ := bootStatefulServer(t, dir)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp index survived boot (%v)", err)
	}
	if replayed != 3 {
		t.Fatalf("replayed %d, want 3", replayed)
	}
	srv.EnableCompaction(1, nil)
	hs, err := client.HealthInfo()
	if err != nil {
		t.Fatal(err)
	}
	if hs.CorpusSegments != 1 || hs.SegmentSamples != 3 || hs.WALSamples != 0 {
		t.Fatalf("after EnableCompaction: %+v, want the segment resealed", hs)
	}
	crash(srv)
	if segN, walN, _, _ := replayCounts(t, dir); segN != 3 || walN != 0 {
		t.Fatalf("next boot: %d sealed + %d open, want 3 + 0", segN, walN)
	}
}

// TestIndexRenameNotDirSyncedEitherWay: power loss after the index rename
// but before the directory fsync may keep or lose the rename. Either way
// the same records replay in the same order, once each.
func TestIndexRenameNotDirSyncedEitherWay(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		appendVariant(t, st, "clean", i)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want := "[clean-000 clean-001 clean-002 clean-003]"
	if segN, walN, names, _ := replayCounts(t, dir); segN != 4 || walN != 0 || fmt.Sprint(names) != want {
		t.Fatalf("rename kept: %d + %d records %v", segN, walN, names)
	}
	if err := os.Remove(filepath.Join(dir, "corpus-000001.idx")); err != nil {
		t.Fatal(err)
	}
	if segN, walN, names, _ := replayCounts(t, dir); segN != 0 || walN != 4 || fmt.Sprint(names) != want {
		t.Fatalf("rename lost: %d + %d records %v", segN, walN, names)
	}
}

// TestRestartThroughSegmentsBitIdentical is the end-to-end durability
// acceptance test: upload, train, seal the segment, kill -9, reboot —
// the rebuilt server must serve bit-identical prediction probabilities and
// report consistent corpus health.
func TestRestartThroughSegmentsBitIdentical(t *testing.T) {
	dir := t.TempDir()
	srv1, client1, _, _ := bootStatefulServer(t, dir)
	for i := 0; i < 3; i++ {
		if err := client1.AddSampleASM("clean", "", variant(chainProgram, i)); err != nil {
			t.Fatal(err)
		}
		if err := client1.AddSampleASM("dirty", "", variant(loopProgram, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client1.Train(3, 0); err != nil {
		t.Fatal(err)
	}
	srv1.mu.Lock()
	st1 := srv1.store
	srv1.mu.Unlock()
	if err := st1.Compact(); err != nil {
		t.Fatal(err)
	}
	if st1.Stats().Segments == 0 {
		t.Fatal("the seal produced no segment")
	}
	before, err := client1.PredictASM(variant(loopProgram, 7))
	if err != nil {
		t.Fatal(err)
	}
	crash(srv1)

	_, client2, replayed, loaded := bootStatefulServer(t, dir)
	if replayed != 6 || !loaded {
		t.Fatalf("reboot replayed %d samples (model %v), want 6 and a checkpoint", replayed, loaded)
	}
	hs, err := client2.HealthInfo()
	if err != nil {
		t.Fatal(err)
	}
	if hs.CorpusSamples != 6 || hs.SegmentSamples != 6 || hs.WALSamples != 0 || hs.CorpusSegments == 0 {
		t.Fatalf("health after reboot = %+v, want all 6 samples in segments", hs)
	}
	after, err := client2.PredictASM(variant(loopProgram, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Predictions) != len(after.Predictions) {
		t.Fatalf("prediction shapes differ: %d vs %d", len(before.Predictions), len(after.Predictions))
	}
	for i := range before.Predictions {
		b, a := before.Predictions[i], after.Predictions[i]
		if b.Family != a.Family || b.Probability != a.Probability {
			t.Fatalf("prediction %d differs across kill-9 restart: %s %.17g vs %s %.17g",
				i, b.Family, b.Probability, a.Family, a.Probability)
		}
	}
}
