package service

import (
	"encoding/hex"
	"testing"

	"repro/internal/corpus"
	"repro/internal/malgen"
)

// BenchmarkCorpusReplay measures boot-time corpus replay from each storage
// tier over identical samples: the JSONL write-ahead log versus one
// compacted binary segment. Segment replay skips JSON parsing entirely —
// length-prefixed records decode straight from a checksummed mmap-less
// sequential read — and is the reason the compactor exists; the segment
// sub-benchmark should be at least 5x faster than the WAL one.
func BenchmarkCorpusReplay(b *testing.B) {
	d, err := malgen.MSKCFG(malgen.Options{TotalSamples: 120, Seed: 9, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]walEntry, d.Len())
	for i, s := range d.Samples {
		h := s.ACFG.ContentHash()
		entries[i] = walEntry{Family: d.Families[s.Label], Name: s.Name, Hash: hex.EncodeToString(h[:]), ACFG: s.ACFG}
	}
	// seed writes every sample into a fresh state dir, optionally folding
	// the WAL into a segment so replay exercises the binary tier.
	seed := func(b *testing.B, compact bool) string {
		b.Helper()
		dir := b.TempDir()
		st, err := OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.AppendBatch(entries, nil); err != nil {
			b.Fatal(err)
		}
		if compact {
			if err := st.Compact(); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	replay := func(b *testing.B, dir string) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st, err := OpenStore(dir)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			if _, _, err := st.Replay(func(*corpus.Record, bool) error { n++; return nil }); err != nil {
				b.Fatal(err)
			}
			if n != len(entries) {
				b.Fatalf("replayed %d of %d records", n, len(entries))
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("wal", func(b *testing.B) {
		dir := seed(b, false)
		b.ResetTimer()
		replay(b, dir)
	})
	b.Run("segment", func(b *testing.B) {
		dir := seed(b, true)
		b.ResetTimer()
		replay(b, dir)
	})
}
