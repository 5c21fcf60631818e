package obs

// CorpusMetrics publishes telemetry for the durable corpus: the open
// segment that absorbs ingest (the write-ahead log) and the sealed,
// immutable segments behind it. Gauges mirror the store's current shape;
// counters track seal outcomes and ingest deduplication.
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
			"Sealed corpus segments on disk."),
		segRecords: r.Gauge("magic_corpus_segment_records",
			"Corpus samples stored in sealed segments."),
		segBytes: r.Gauge("magic_corpus_segment_bytes",
			"On-disk size of all sealed corpus segments."),
		walRecords: r.Gauge("magic_corpus_wal_records",
			"Corpus samples in the open segment, the write-ahead log (not yet sealed)."),
		walBytes: r.Gauge("magic_corpus_wal_bytes",
			"Durable size of the open corpus segment, the write-ahead log."),
		resident: r.Gauge("magic_corpus_resident_samples",
			"Corpus samples held decoded in memory: every sample without a state dir, 0 with one (samples are then read from their segment files on demand)."),
		compactions: r.CounterVec("magic_corpus_compactions_total",
			"Seals of the open corpus segment on reaching the compaction threshold, by outcome (ok or error).", "outcome"),
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

// CompactionFinished counts one seal attempt.
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
