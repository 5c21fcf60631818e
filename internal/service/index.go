package service

import (
	"crypto/sha256"
	"sync"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// entry is one corpus sample as the server indexes it. Its graph lives in
// exactly one of two places: smp holds the decoded sample while it is
// resident — a sample in the WAL tail, or any sample of a server without a
// state dir — and seg names the open committed segment that holds it as
// record rec once boot replay or the compactor has put it there (smp is then
// nil, and At reads the record back on demand). label and size answer what a
// job asks before it needs any graph: class counts, the sort-pooling k, the
// stratified split.
type entry struct {
	smp   *dataset.Sample
	seg   *corpus.Segment
	rec   int32
	label int32
	size  int32
}

// residentEntry indexes a decoded sample held in memory.
func residentEntry(smp *dataset.Sample) entry {
	return entry{smp: smp, label: int32(smp.Label), size: int32(smp.ACFG.NumVertices())}
}

// samples is an immutable run of entries over a fixed label universe — a
// training job's snapshot of the corpus — and the dataset.SampleSource the
// job trains and evaluates on. Copying entries copies their smp pointers, so
// a snapshot keeps its resident ACFGs alive even after the compactor has
// re-pointed the live index at a segment.
type samples struct {
	classes int
	entries []entry
}

// Len returns the number of samples.
func (s *samples) Len() int { return len(s.entries) }

// NumClasses returns the size of the label universe.
func (s *samples) NumClasses() int { return s.classes }

// At returns sample i, decoding it from its segment unless it is resident.
// A decoded sample is the caller's: nothing else holds it.
func (s *samples) At(i int) (*dataset.Sample, error) {
	e := &s.entries[i]
	if e.smp != nil {
		return e.smp, nil
	}
	r, err := e.seg.Record(int(e.rec))
	if err != nil {
		return nil, err
	}
	return &dataset.Sample{Name: r.Name, Label: int(e.label), ACFG: r.ACFG}, nil
}

// Sizes returns each sample's vertex count without touching a graph.
func (s *samples) Sizes() []int {
	sizes := make([]int, len(s.entries))
	for i, e := range s.entries {
		sizes[i] = int(e.size)
	}
	return sizes
}

// CountByClass returns per-family sample counts.
func (s *samples) CountByClass() []int {
	counts := make([]int, s.classes)
	for _, e := range s.entries {
		counts[e.label]++
	}
	return counts
}

// subset returns the samples at idx, in idx order.
func (s *samples) subset(idx []int) *samples {
	sub := &samples{classes: s.classes, entries: make([]entry, len(idx))}
	for i, j := range idx {
		sub.entries[i] = s.entries[j]
	}
	return sub
}

// split is dataset.Dataset.TrainValSplit over the label slice: the same
// labels and seed pick the same indices whichever of the two holds them.
func (s *samples) split(valFraction float64, seed int64) (train, val *samples, err error) {
	labels := make([]int, len(s.entries))
	for i, e := range s.entries {
		labels[i] = int(e.label)
	}
	trainIdx, valIdx, err := dataset.StratifiedSplit(labels, valFraction, seed)
	if err != nil {
		return nil, nil, err
	}
	return s.subset(trainIdx), s.subset(valIdx), nil
}

// corpusIndex is the server's corpus: every distinct accepted sample in
// acceptance order, the order the seeded split and the continual watermark
// count in. byHash is the corpus-wide content-hash set — ingest dedup asks
// it whether a graph is already stored, the compactor whether it already
// lives in a segment — and leads from a hash to its entry, which is how the
// compactor re-points the samples it folds. The index has its own lock, the
// innermost one (nothing else is locked while it is held), so the compactor
// can consult and re-point it without Server.mu — which Server.Close holds
// while it waits for the compactor to stop.
type corpusIndex struct {
	metrics *obs.CorpusMetrics

	mu       sync.Mutex
	all      samples
	byHash   map[[sha256.Size]byte]int32 // content hash → index into all.entries
	resident int                         // entries with smp set
}

func newCorpusIndex(classes int, metrics *obs.CorpusMetrics) *corpusIndex {
	return &corpusIndex{
		metrics: metrics,
		all:     samples{classes: classes},
		byHash:  make(map[[sha256.Size]byte]int32),
	}
}

// Len returns the number of samples in the corpus.
func (x *corpusIndex) Len() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.all.Len()
}

// CountByClass returns per-family sample counts.
func (x *corpusIndex) CountByClass() []int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.all.CountByClass()
}

// Resident returns how many samples are held decoded in memory.
func (x *corpusIndex) Resident() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.resident
}

// contains reports whether a sample with content hash h is in the corpus.
func (x *corpusIndex) contains(h [sha256.Size]byte) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	_, ok := x.byHash[h]
	return ok
}

// add appends e under content hash h, or reports false and changes nothing
// when the corpus already holds that content.
func (x *corpusIndex) add(h [sha256.Size]byte, e entry) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, dup := x.byHash[h]; dup {
		return false
	}
	x.byHash[h] = int32(len(x.all.entries))
	x.all.entries = append(x.all.entries, e)
	if e.smp != nil {
		x.resident++
		x.metrics.SetResident(x.resident)
	}
	return true
}

// inSegment reports whether the sample with content hash h already lives in
// a committed segment.
func (x *corpusIndex) inSegment(h [sha256.Size]byte) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	i, ok := x.byHash[h]
	return ok && x.all.entries[i].seg != nil
}

// moveToSegment re-points the resident samples whose records the compactor
// just committed — recs[k] is record k of seg — at the segment, dropping
// their decoded ACFGs. Records are matched to entries by content hash.
func (x *corpusIndex) moveToSegment(seg *corpus.Segment, recs []*corpus.Record) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for k, r := range recs {
		i, ok := x.byHash[r.Hash]
		if !ok || x.all.entries[i].seg != nil {
			continue
		}
		e := &x.all.entries[i]
		e.smp, e.seg, e.rec = nil, seg, int32(k)
		x.resident--
	}
	x.metrics.SetResident(x.resident)
}

// snapshot copies the entries accepted so far: a job's view of the corpus,
// unaffected by later uploads and compactions.
func (x *corpusIndex) snapshot() *samples {
	x.mu.Lock()
	defer x.mu.Unlock()
	return &samples{classes: x.all.classes, entries: append([]entry(nil), x.all.entries...)}
}
