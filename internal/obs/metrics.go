package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// atomicFloat is a float64 manipulated through its IEEE-754 bits so that
// updates are lock-free.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

// add is a CAS loop; uncontended it is a single compare-and-swap.
func (f *atomicFloat) add(delta float64) {
	for {
		old := f.bits.Load()
		nu := math.Float64bits(math.Float64frombits(old) + delta)
		if f.bits.CompareAndSwap(old, nu) {
			return
		}
	}
}

// Counter is a monotonically increasing value.
type Counter struct {
	vals []string
	v    atomicFloat
}

func (c *Counter) labelValues() []string { return c.vals }

// Inc adds 1.
func (c *Counter) Inc() { c.v.add(1) }

// Add adds delta, which must not be negative.
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic("obs: counter decreased")
	}
	c.v.add(delta)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.load() }

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	fam *family
}

// With resolves the child counter for the given label values (one per
// label key, in registration order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.fam.child(values, func(vals []string) metric {
		return &Counter{vals: vals}
	}).(*Counter)
}

// Gauge is a value that can go up and down.
type Gauge struct {
	vals []string
	v    atomicFloat
}

func (g *Gauge) labelValues() []string { return g.vals }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.store(v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.load() }

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct {
	fam *family
}

// With resolves the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.fam.child(values, func(vals []string) metric {
		return &Gauge{vals: vals}
	}).(*Gauge)
}

// Histogram buckets observations under fixed upper bounds (inclusive,
// Prometheus "le" semantics) and tracks their sum and count.
type Histogram struct {
	vals    []string
	bounds  []float64 // sorted ascending; +Inf is implicit
	counts  []atomic.Uint64
	overrun atomic.Uint64 // observations above the last bound (+Inf bucket)
	sum     atomicFloat
	count   atomic.Uint64
}

func (h *Histogram) labelValues() []string { return h.vals }

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// First bound >= v: le bounds are inclusive upper limits.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.overrun.Add(1)
	}
	h.sum.add(v)
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// cumulative returns the per-bound cumulative counts (excluding +Inf,
// which equals Count).
func (h *Histogram) cumulative() []uint64 {
	out := make([]uint64, len(h.bounds))
	var acc uint64
	for i := range h.bounds {
		acc += h.counts[i].Load()
		out[i] = acc
	}
	return out
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct {
	fam *family
}

// With resolves the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.fam.child(values, func(vals []string) metric {
		return &Histogram{
			vals:   vals,
			bounds: v.fam.buckets,
			counts: make([]atomic.Uint64, len(v.fam.buckets)),
		}
	}).(*Histogram)
}

// ExpBuckets returns n exponential bucket upper bounds starting at start
// and growing by factor: start, start*factor, start*factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefBuckets is the default duration-histogram layout: 100µs to ~52s in
// twenty powers of two. It covers the fast ingestion stages (sub-ms), HTTP
// request latencies, and whole training epochs.
var DefBuckets = ExpBuckets(0.0001, 2, 20)

// sortMetrics orders children lexicographically by label values for
// deterministic exposition.
func sortMetrics(ms []metric) {
	sort.Slice(ms, func(i, j int) bool {
		return childKey(ms[i].labelValues()) < childKey(ms[j].labelValues())
	})
}
