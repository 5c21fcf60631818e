package service

import (
	"crypto/sha256"

	"repro/internal/acfg"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// entry is one corpus sample as the server indexes it. Its graph lives in
// exactly one of two places: with a state dir, seg is the segment file that
// holds it as the frame at byte off — from the moment its append was
// fsynced, open segment or sealed, since a frame never moves — and At reads
// it back on demand; without a state dir there is nowhere else for it to
// live, and smp holds the decoded sample. label and size answer what a job
// asks before it needs any graph: class counts, the sort-pooling k, the
// stratified split.
type entry struct {
	smp   *dataset.Sample
	seg   *corpus.Segment
	off   int64
	label int32
	size  int32
}

// residentEntry indexes a decoded sample held in memory.
func residentEntry(smp *dataset.Sample) entry {
	return entry{smp: smp, label: int32(smp.Label), size: int32(smp.ACFG.NumVertices())}
}

// storedEntry indexes the sample framed at byte off of seg.
func storedEntry(seg *corpus.Segment, off int64, label int, a *acfg.ACFG) entry {
	return entry{seg: seg, off: off, label: int32(label), size: int32(a.NumVertices())}
}

// samples is an immutable run of entries over a fixed label universe — a
// training job's snapshot of the corpus — and the dataset.SampleSource the
// job trains and evaluates on.
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
	r, err := e.seg.RecordAt(e.off)
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
// count in. byHash is the corpus-wide content-hash set ingest dedup asks
// whether a graph is already stored. The index is guarded by Server.mu.
type corpusIndex struct {
	metrics *obs.CorpusMetrics

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
func (x *corpusIndex) Len() int { return x.all.Len() }

// CountByClass returns per-family sample counts.
func (x *corpusIndex) CountByClass() []int { return x.all.CountByClass() }

// Resident returns how many samples are held decoded in memory.
func (x *corpusIndex) Resident() int { return x.resident }

// contains reports whether a sample with content hash h is in the corpus.
func (x *corpusIndex) contains(h [sha256.Size]byte) bool {
	_, ok := x.byHash[h]
	return ok
}

// add appends e under content hash h, or reports false and changes nothing
// when the corpus already holds that content.
func (x *corpusIndex) add(h [sha256.Size]byte, e entry) bool {
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

// snapshot copies the entries accepted so far: a job's view of the corpus,
// unaffected by later uploads and seals.
func (x *corpusIndex) snapshot() *samples {
	return &samples{classes: x.all.classes, entries: append([]entry(nil), x.all.entries...)}
}
