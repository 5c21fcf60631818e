package obs

// CorpusMetrics publishes telemetry for the durable corpus tiers: the
// JSONL write-ahead log that absorbs ingest, and the immutable binary
// segments the background compactor folds it into. Gauges mirror the
// store's current shape; counters track compaction outcomes and ingest
// deduplication.
type CorpusMetrics struct {
	segments    *Gauge
	segRecords  *Gauge
	segBytes    *Gauge
	walRecords  *Gauge
	walBytes    *Gauge
	resident    *Gauge
	compactions *CounterVec // outcome
	deduped     *Counter
}

// NewCorpusMetrics registers the corpus metric families on r.
// Registration is idempotent, like all registry calls.
func NewCorpusMetrics(r *Registry) *CorpusMetrics {
	return &CorpusMetrics{
		segments: r.Gauge("magic_corpus_segments",
			"Committed binary corpus segments on disk."),
		segRecords: r.Gauge("magic_corpus_segment_records",
			"Corpus samples stored in committed segments."),
		segBytes: r.Gauge("magic_corpus_segment_bytes",
			"On-disk size of all committed corpus segments."),
		walRecords: r.Gauge("magic_corpus_wal_records",
			"Corpus samples still in the write-ahead log (not yet compacted)."),
		walBytes: r.Gauge("magic_corpus_wal_bytes",
			"Durable size of the corpus write-ahead log."),
		resident: r.Gauge("magic_corpus_resident_samples",
			"Corpus samples held decoded in memory (the WAL tail, or every sample without a state dir); the rest are read from segments on demand."),
		compactions: r.CounterVec("magic_corpus_compactions_total",
			"WAL-to-segment compaction attempts, by outcome (ok or error).", "outcome"),
		deduped: r.Counter("magic_corpus_deduplicated_total",
			"Uploaded samples dropped because their content hash was already stored."),
	}
}

// SetState mirrors the store's current tier shape onto the gauges.
func (c *CorpusMetrics) SetState(segments, segRecords int, segBytes int64, walRecords int, walBytes int64) {
	c.segments.Set(float64(segments))
	c.segRecords.Set(float64(segRecords))
	c.segBytes.Set(float64(segBytes))
	c.walRecords.Set(float64(walRecords))
	c.walBytes.Set(float64(walBytes))
}

// SetResident reports how many corpus samples are held decoded in memory.
func (c *CorpusMetrics) SetResident(n int) {
	c.resident.Set(float64(n))
}

// CompactionFinished counts one compaction attempt.
func (c *CorpusMetrics) CompactionFinished(failed bool) {
	outcome := "ok"
	if failed {
		outcome = "error"
	}
	c.compactions.With(outcome).Inc()
}

// Deduplicated counts one content-hash ingest dedup hit.
func (c *CorpusMetrics) Deduplicated() {
	c.deduped.Inc()
}
