package obs

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"
)

// The repository's metric grammar, a subset of the Prometheus identifier
// charset: names live in the magic_ namespace in lowercase snake case, and
// label keys are lowercase snake case. maxLabelKeys bounds a family's
// label keys: labels multiply time series, and past a handful that is a
// cardinality bug, not telemetry.
var (
	metricNameRe = regexp.MustCompile(`^magic_[a-z0-9_]+$`)
	labelKeyRe   = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

const maxLabelKeys = 4

type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	case histogramType:
		return "histogram"
	}
	return "unknown"
}

// Registry holds metric families and renders them in Prometheus text
// format. All methods are safe for concurrent use.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family is one named metric with a fixed type and label-key set; its
// children are the per-label-value instances.
type family struct {
	name      string
	help      string
	typ       metricType
	labelKeys []string
	buckets   []float64 // histograms only

	mu       sync.RWMutex
	children map[string]metric // key: label values joined by 0xff
}

// metric is the exposition-side view of a single child.
type metric interface {
	labelValues() []string
}

// childKey joins label values into a map key. 0xff cannot occur in UTF-8
// text, so the join is unambiguous.
func childKey(values []string) string {
	return strings.Join(values, "\xff")
}

// CounterVec returns the labeled counter family with the given name,
// creating it on first use. Re-registration with the same shape returns
// the existing family; a conflicting shape panics.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{fam: r.family(name, help, counterType, labelKeys, nil)}
}

// Counter returns the label-less counter with the given name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// GaugeVec returns the labeled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labelKeys ...string) *GaugeVec {
	return &GaugeVec{fam: r.family(name, help, gaugeType, labelKeys, nil)}
}

// Gauge returns the label-less gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// HistogramVec returns the labeled histogram family with the given name
// and bucket upper bounds, which must be non-empty and sorted strictly
// ascending; an implicit +Inf bucket is always appended.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelKeys ...string) *HistogramVec {
	return &HistogramVec{fam: r.family(name, help, histogramType, labelKeys, buckets)}
}

// Histogram returns the label-less histogram with the given name.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// family is the idempotent get-or-create at the heart of registration. An
// invalid name, label key or bucket list, or a re-registration with a
// different shape, panics: every registration runs when a package or
// server is built, so a bad one fails the first test that builds it.
func (r *Registry) family(name, help string, typ metricType, labelKeys []string, buckets []float64) *family {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: metric name %q does not match %s", name, metricNameRe))
	}
	if len(labelKeys) > maxLabelKeys {
		panic(fmt.Sprintf("obs: metric %q has %d label keys, more than %d", name, len(labelKeys), maxLabelKeys))
	}
	for _, k := range labelKeys {
		if !labelKeyRe.MatchString(k) {
			panic(fmt.Sprintf("obs: metric %q label key %q does not match %s", name, k, labelKeyRe))
		}
	}
	if typ == histogramType {
		if len(buckets) == 0 {
			panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] <= buckets[i-1] {
				panic(fmt.Sprintf("obs: histogram %q buckets not strictly ascending at %d", name, i))
			}
		}
	}

	r.mu.RLock()
	f, ok := r.fams[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if f, ok = r.fams[name]; !ok {
			f = &family{
				name:      name,
				help:      help,
				typ:       typ,
				labelKeys: append([]string(nil), labelKeys...),
				buckets:   append([]float64(nil), buckets...),
				children:  make(map[string]metric),
			}
			r.fams[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q already registered as %s, requested %s", name, f.typ, typ))
	}
	if !equalStrings(f.labelKeys, labelKeys) {
		panic(fmt.Sprintf("obs: metric %q already registered with labels %v, requested %v",
			name, f.labelKeys, labelKeys))
	}
	if typ == histogramType && !equalFloats(f.buckets, buckets) {
		panic(fmt.Sprintf("obs: histogram %q already registered with different buckets", name))
	}
	return f
}

// child resolves (creating on first use) the metric for one label-value
// tuple. make is called outside the lock race only once per tuple.
func (f *family) child(values []string, make func([]string) metric) metric {
	if len(values) != len(f.labelKeys) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labelKeys), len(values)))
	}
	key := childKey(values)
	f.mu.RLock()
	m, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok = f.children[key]; ok {
		return m
	}
	m = make(append([]string(nil), values...))
	f.children[key] = m
	return m
}

// snapshot returns the children sorted by label values for deterministic
// exposition.
func (f *family) snapshot() []metric {
	f.mu.RLock()
	out := make([]metric, 0, len(f.children))
	for _, m := range f.children {
		out = append(out, m)
	}
	f.mu.RUnlock()
	sortMetrics(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Re-registration demands bit-identical bucket bounds, not
		// approximately equal ones.
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
