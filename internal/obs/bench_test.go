package obs

import (
	"testing"
	"time"
)

// The per-request instrumentation budget is <1µs/op (see ISSUE /
// DESIGN.md "Observability"): a counter increment plus a histogram
// observation must be invisible next to a forward pass or an HTTP
// round-trip. Run with: go test ./internal/obs -bench . -benchmem

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("magic_bench_ops_total", "ops")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("magic_bench_ops_total", "ops")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkCounterVecWith(b *testing.B) {
	v := NewRegistry().CounterVec("magic_bench_ops_total", "ops", "endpoint", "code")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.With("/v1/predict", "200").Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("magic_bench_latency_seconds", "latency", DefBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewRegistry().Histogram("magic_bench_latency_seconds", "latency", DefBuckets)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.0042)
		}
	})
}

// BenchmarkRequestHotPath is the full per-request cost a wrapped endpoint
// pays: resolve a labeled counter, increment it, and observe a latency.
func BenchmarkRequestHotPath(b *testing.B) {
	r := NewRegistry()
	requests := r.CounterVec("magic_bench_requests_total", "req", "endpoint", "method", "code")
	latency := r.HistogramVec("magic_bench_latency_seconds", "lat", DefBuckets, "endpoint").With("/v1/predict")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		latency.Observe(0.0042)
		requests.With("/v1/predict", "POST", "200").Inc()
	}
}

// BenchmarkTimeStage measures a whole pipeline stage timer including the
// time.Now calls it wraps.
func BenchmarkTimeStage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TimeStage(StageCFGBuild)()
	}
}

// TestHotPathUnderMicrosecond is the enforced form of the <1µs/op budget:
// it times the counter-inc + histogram-observe pair directly so a
// regression fails tests, not just a benchmark someone has to read.
func TestHotPathUnderMicrosecond(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	r := NewRegistry()
	c := r.CounterVec("magic_hot_total", "ops", "endpoint", "code")
	h := r.Histogram("magic_hot_seconds", "lat", DefBuckets)
	const n = 200_000
	start := time.Now()
	for i := 0; i < n; i++ {
		h.Observe(0.0042)
		c.With("/v1/predict", "200").Inc()
	}
	perOp := time.Since(start) / n
	// Generous 5µs ceiling so a loaded CI machine doesn't flake; real cost
	// is tens of nanoseconds.
	if perOp > 5*time.Microsecond {
		t.Fatalf("instrumentation hot path %v/op, want well under 5µs", perOp)
	}
	t.Logf("hot path: %v/op", perOp)
}
