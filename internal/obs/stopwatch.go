package obs

import (
	"sync/atomic"
	"time"
)

// The numeric packages (internal/core, internal/dataset, …) are forbidden
// from reading the wall clock — their outputs must be a pure function of
// (config, seed, data), and internal/lint's determinism check, which
// `go test ./...` runs as TestRepositoryLintClean, enforces the ban.
// Telemetry still wants durations, so the clock lives here: obs owns every
// time.Now in the training and extraction paths, and numeric code handles
// only opaque Stopwatch/BusyMeter values whose readings flow exclusively
// into metrics.

// Stopwatch marks an instant; Elapsed reads the wall-clock distance from
// it. The zero Stopwatch is not meaningful — always start with StartTimer.
type Stopwatch struct {
	start time.Time
}

// StartTimer returns a stopwatch running from now.
func StartTimer() Stopwatch {
	return Stopwatch{start: time.Now()}
}

// Elapsed returns the time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration {
	return time.Since(s.start)
}

// BusyMeter accumulates busy time across concurrent workers. The zero
// value is ready to use; Track and Total are safe for concurrent use.
type BusyMeter struct {
	ns atomic.Int64
}

// Track starts timing one span of work and returns the function that ends
// it, adding the span to the total. The idiomatic call is
//
//	defer meter.Track()()
//
// which starts the span at the defer statement and closes it on return.
func (b *BusyMeter) Track() func() {
	sw := StartTimer()
	return func() { b.ns.Add(int64(sw.Elapsed())) }
}

// Add credits one already-measured span to the total. The allocation-free
// alternative to Track for hot paths that hold a Stopwatch themselves.
func (b *BusyMeter) Add(d time.Duration) {
	b.ns.Add(int64(d))
}

// Reset clears the accumulated total so a meter embedded in a long-lived
// engine can be reused per batch.
func (b *BusyMeter) Reset() {
	b.ns.Store(0)
}

// Total returns the accumulated busy time across all tracked spans.
func (b *BusyMeter) Total() time.Duration {
	return time.Duration(b.ns.Load())
}
