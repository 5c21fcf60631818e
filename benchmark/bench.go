package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// sizes are the input counts of one run. The full sizes are what
// BENCHMARK.json's bounds were measured on; the smoke sizes only prove the
// four workloads still run end to end and check their answers.
type sizes struct {
	acfgPool     int  // cycled pre-extracted graphs (classify-acfg-lone)
	asmPool      int  // cycled raw listings (classify-asm-large)
	hotSet       int  // repeatedly requested graphs (gateway-repeat-mix)
	coldPool     int  // never-seen graphs the mix may draw in one run
	fillCache    bool // fill the gateway cache to capacity in set-up, so misses evict
	warmup       int  // requests sent before the first timed window
	trainCorpus  int  // imported labelled samples (corpus-lifecycle)
	trainEpochs  int
	uploads      int // durable /v1/samples requests, repeats included
	heldOut      int // graphs classified after the restart
	walk         int // inputs the stage walk takes
	storeRecords int // records per store micro-stage of the walk
}

var fullSizes = sizes{
	acfgPool: 512, asmPool: 128, hotSet: 256, coldPool: 5000, fillCache: true, warmup: 128,
	trainCorpus: 1200, trainEpochs: 2, uploads: 6000, heldOut: 300,
	walk: 200, storeRecords: 2000,
}

var smokeSizes = sizes{
	acfgPool: 32, asmPool: 8, hotSet: 16, coldPool: 400, warmup: 8,
	trainCorpus: 130, trainEpochs: 1, uploads: 300, heldOut: 26,
	walk: 4, storeRecords: 40,
}

// runConfig is one invocation's arguments.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool // smoke sizes: too few samples for a tail or an accuracy
	sizes   sizes
	workDir string // scratch inside the checkout: state dirs, span files
}

// bench is the state of one run of one workload.
type bench struct {
	cfg      runConfig
	rec      *recorder
	ids      idSource
	out      map[string]float64
	problems []string
	// attempted and failed count every operation of the run whose answer was
	// checked, in every window and phase.
	attempted int
	failed    int
}

func newBench(cfg runConfig) *bench {
	return &bench{cfg: cfg, rec: newRecorder(), out: make(map[string]float64)}
}

// rng returns the generator for one named part of the inputs, so adding a
// draw to one part does not shift the others.
func (b *bench) rng(part int64) *rand.Rand {
	return rand.New(rand.NewSource(b.cfg.seed*1000003 + part))
}

func (b *bench) problemf(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// count adds a window's operations to the run's totals.
func (b *bench) count(w *window) {
	b.attempted += w.attempted
	b.failed += w.failed
	for _, e := range w.errors {
		b.problemf("%s", e)
	}
}

// timed is the length of the run's timed window.
func (b *bench) timed() time.Duration {
	return time.Duration(b.cfg.seconds * float64(time.Second))
}

// tempDir makes a fresh directory under the run's scratch directory.
func (b *bench) tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(b.cfg.workDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(b.cfg.workDir, pattern)
}

// measured is one workload's timed part: an untraced window the end-to-end
// numbers come from and, in a traced run, a second window with the
// recorder on. Scrapes and process counters bracket each.
type measured struct {
	plain  *window
	traced *window
	spans  []span
	// Scrapes around each window, aligned with the registries drive was
	// given; the first is the registry of the server the generator talks to.
	before     []samples // around plain
	after      []samples
	tBefore    []samples // around traced
	tAfter     []samples
	procBefore procStats
	procAfter  procStats
}

// processLayers fills the per-layer metrics every workload takes from the
// two halves of a traced run: the process counters over the untraced half,
// and what the recorder cost the traced one.
func (m *measured) processLayers(out map[string]float64) {
	if plain := m.plain.throughput(); plain > 0 {
		out["trace.overhead_pct"] = 100 * (plain - m.traced.throughput()) / plain
	}
	before, after := m.procBefore, m.procAfter
	if ops := m.plain.attempted; ops > 0 {
		out["process.mallocs_per_op"] = float64(after.mallocs-before.mallocs) / float64(ops)
		out["process.alloc_kb_per_op"] = float64(after.allocBytes-before.allocBytes) / 1e3 / float64(ops)
	}
	if cpu := after.busyCPU - before.busyCPU; cpu > 0 {
		out["process.gc_cpu_pct"] = 100 * (after.gcCPU - before.gcCPU) / cpu
	}
	out["process.peak_rss_mb"] = peakRSSMB()
}

// drive runs l for d. An untraced run spends all of it in one window; a
// traced run splits it into an untraced and a traced half, so both runs
// take the same time and the two halves give the tracing overhead.
func (b *bench) drive(l *load, d time.Duration, regs ...*obs.Registry) (*measured, error) {
	l.rec, l.ids = b.rec, &b.ids
	m := &measured{}
	l.duration = d
	if b.cfg.trace {
		l.duration /= 2
	}
	var err error
	if m.before, err = scrapeAll(regs); err != nil {
		return nil, err
	}
	m.procBefore = readProcStats()
	m.plain = l.run()
	m.procAfter = readProcStats()
	if m.after, err = l.settle(m.before[0], m.plain, regs); err != nil {
		return nil, err
	}
	b.count(m.plain)
	m.plain.print("untraced")
	if !b.cfg.trace {
		return m, nil
	}
	m.tBefore = m.after
	b.rec.on.Store(true)
	m.traced = l.run()
	b.rec.on.Store(false)
	if m.tAfter, err = l.settle(m.tBefore[0], m.traced, regs); err != nil {
		return nil, err
	}
	m.spans = b.rec.take()
	b.count(m.traced)
	m.traced.print("traced")
	return m, nil
}

// settle scrapes regs once the front server's request counter has caught
// up with the window: the servers count a request after writing its answer,
// so the last answers can reach the generator first.
func (l *load) settle(base samples, w *window, regs []*obs.Registry) ([]samples, error) {
	for try := 0; ; try++ {
		s, err := scrapeAll(regs)
		if err != nil {
			return nil, err
		}
		if int(delta(base, s[0], httpOK(l.route, l.okStatus))) >= w.successes() || try == 100 {
			return s, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// endToEnd fills the end-to-end metrics of the workload's primary operation
// from the whole untraced window. An untraced run calls it; a traced run
// reports only per-layer metrics and its half-length window owes no tail.
func (b *bench) endToEnd(w *window) {
	b.out["throughput_rps"] = w.throughput()
	b.out["latency_p50_ms"] = percentile(w.latencies, 50)
	tail, err := p99(w.latencies)
	if err != nil && b.cfg.smoke {
		tail, err = percentile(w.latencies, 99), nil
	}
	if err != nil {
		b.problemf("latency_p99_ms: %v", err)
	}
	b.out["latency_p99_ms"] = tail
	b.out["live_heap_mb"] = liveHeapMB()
}

// loopbackAllowanceMs is how much longer than 1.25× the server's own mean
// the generator's mean latency may be before the two measurement paths are
// said to disagree: the cost of one loopback HTTP exchange and of waiting
// for a core the servers also use.
const loopbackAllowanceMs = 1.5

// crossCheck holds the generator's count and mean latency against the
// server's own /metrics for the route: the counts must agree exactly, and
// the generator's mean must be no less than the server's and no more than
// 25 % plus the loopback allowance above it.
func (b *bench) crossCheck(who string, w *window, before, after samples, route string, code int) {
	got := delta(before, after, httpOK(route, code))
	if int(got) != w.successes() {
		b.problemf("%s: generator counted %d successes on %s, /metrics counted %.0f", who, w.successes(), route, got)
	}
	serverMean, n := histMean(before, after, "magic_http_request_duration_seconds", fmt.Sprintf(`{endpoint=%q}`, route))
	if n == 0 {
		b.problemf("%s: /metrics holds no latency observations for %s", who, route)
		return
	}
	clientMean, serverMs := mean(w.latencies), serverMean*1e3
	fmt.Printf("# %s %s: generator mean %.3f ms, server histogram mean %.3f ms over %.0f requests\n", who, route, clientMean, serverMs, n)
	if clientMean < serverMs || clientMean > 1.25*serverMs+loopbackAllowanceMs {
		b.problemf("%s: generator mean %.3f ms against server mean %.3f ms on %s: outside [server, 1.25×server + %.1f ms]",
			who, clientMean, serverMs, route, loopbackAllowanceMs)
	}
}

// spanPath is where a traced run writes its spans.
func (b *bench) spanPath(workload string) string {
	return filepath.Join(b.cfg.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, b.cfg.seed))
}
