// Package dataset holds labeled ACFG collections and the split machinery
// used by the evaluation harness: deterministic shuffles, stratified k-fold
// cross-validation (Section V-B uses five folds) and train/validation
// splits, plus JSON-lines (de)serialization so extracted ACFGs can be staged
// to disk like the paper's pre-processing step does.
package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/acfg"
)

// Sample is one labeled malware instance.
type Sample struct {
	Name  string
	Label int
	ACFG  *acfg.ACFG
}

// Dataset is a labeled corpus with class names.
type Dataset struct {
	Families []string
	Samples  []*Sample
}

// New returns an empty dataset over the given family names.
func New(families []string) *Dataset {
	fs := make([]string, len(families))
	copy(fs, families)
	return &Dataset{Families: fs}
}

// Add appends a sample. It panics on out-of-range labels (programming
// error in a generator).
func (d *Dataset) Add(s *Sample) {
	if s.Label < 0 || s.Label >= len(d.Families) {
		panic(fmt.Sprintf("dataset: label %d out of range for %d families", s.Label, len(d.Families)))
	}
	d.Samples = append(d.Samples, s)
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// NumClasses returns the number of families.
func (d *Dataset) NumClasses() int { return len(d.Families) }

// CountByClass returns per-family sample counts (Figures 7 and 8).
func (d *Dataset) CountByClass() []int {
	counts := make([]int, len(d.Families))
	for _, s := range d.Samples {
		counts[s.Label]++
	}
	return counts
}

// Sizes returns each sample's vertex count, used to resolve the
// sort-pooling k.
func (d *Dataset) Sizes() []int {
	sizes := make([]int, len(d.Samples))
	for i, s := range d.Samples {
		sizes[i] = s.ACFG.NumVertices()
	}
	return sizes
}

// Subset returns a view dataset holding the samples at idx.
func (d *Dataset) Subset(idx []int) *Dataset {
	sub := New(d.Families)
	sub.Samples = make([]*Sample, len(idx))
	for i, j := range idx {
		sub.Samples[i] = d.Samples[j]
	}
	return sub
}

// Fold is one cross-validation fold: sample indices for training and
// validation.
type Fold struct {
	Train []int
	Val   []int
}

// StratifiedKFold splits the dataset into k folds preserving per-class
// proportions, as the paper's five-fold cross-validation does. Assignment
// is deterministic for a given seed.
func (d *Dataset) StratifiedKFold(k int, seed int64) ([]Fold, error) {
	if k < 2 {
		return nil, fmt.Errorf("dataset: k-fold needs k >= 2, got %d", k)
	}
	if d.Len() < k {
		return nil, fmt.Errorf("dataset: %d samples cannot fill %d folds", d.Len(), k)
	}
	rng := rand.New(rand.NewSource(seed))
	byClass := make(map[int][]int)
	for i, s := range d.Samples {
		byClass[s.Label] = append(byClass[s.Label], i)
	}
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)

	assignment := make([]int, d.Len()) // sample -> fold
	for _, c := range classes {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for i, sample := range idx {
			assignment[sample] = i % k
		}
	}
	folds := make([]Fold, k)
	for sample, f := range assignment {
		for fi := range folds {
			if fi == f {
				folds[fi].Val = append(folds[fi].Val, sample)
			} else {
				folds[fi].Train = append(folds[fi].Train, sample)
			}
		}
	}
	return folds, nil
}

// TrainValSplit returns a deterministic stratified split with valFraction
// of each class held out.
func (d *Dataset) TrainValSplit(valFraction float64, seed int64) (train, val *Dataset, err error) {
	labels := make([]int, len(d.Samples))
	for i, s := range d.Samples {
		labels[i] = s.Label
	}
	trainIdx, valIdx, err := StratifiedSplit(labels, valFraction, seed)
	if err != nil {
		return nil, nil, err
	}
	return d.Subset(trainIdx), d.Subset(valIdx), nil
}

// StratifiedSplit is TrainValSplit over a label sequence: labels[i] is
// sample i's class, and the result is the ascending sample indices of each
// side. Any collection that knows its labels — a Dataset, or a corpus index
// whose graphs are on disk — picks the same indices for the same labels and
// seed.
func StratifiedSplit(labels []int, valFraction float64, seed int64) (trainIdx, valIdx []int, err error) {
	if valFraction <= 0 || valFraction >= 1 {
		return nil, nil, fmt.Errorf("dataset: val fraction %v outside (0,1)", valFraction)
	}
	rng := rand.New(rand.NewSource(seed))
	byClass := make(map[int][]int)
	for i, label := range labels {
		byClass[label] = append(byClass[label], i)
	}
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		nVal := int(float64(len(idx)) * valFraction)
		if nVal == 0 && len(idx) > 1 {
			nVal = 1
		}
		valIdx = append(valIdx, idx[:nVal]...)
		trainIdx = append(trainIdx, idx[nVal:]...)
	}
	sort.Ints(trainIdx)
	sort.Ints(valIdx)
	return trainIdx, valIdx, nil
}

// wire format: a header line with families, then one sample per line.
type headerLine struct {
	Families []string `json:"families"`
}

type sampleLine struct {
	Name  string     `json:"name"`
	Label int        `json:"label"`
	ACFG  *acfg.ACFG `json:"acfg"`
}

// Write encodes the dataset as JSON lines.
func (d *Dataset) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(headerLine{Families: d.Families}); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	for _, s := range d.Samples {
		if err := enc.Encode(sampleLine{Name: s.Name, Label: s.Label, ACFG: s.ACFG}); err != nil {
			return fmt.Errorf("dataset: write sample %q: %w", s.Name, err)
		}
	}
	return bw.Flush()
}

// Read decodes a dataset from the JSON-lines form produced by Write.
func Read(r io.Reader) (*Dataset, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var hdr headerLine
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	d := New(hdr.Families)
	for {
		var line sampleLine
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("dataset: read sample: %w", err)
		}
		if line.Label < 0 || line.Label >= len(d.Families) {
			return nil, fmt.Errorf("dataset: sample %q label %d out of range", line.Name, line.Label)
		}
		d.Samples = append(d.Samples, &Sample{Name: line.Name, Label: line.Label, ACFG: line.ACFG})
	}
	return d, nil
}
