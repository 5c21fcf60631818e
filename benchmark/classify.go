package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/malgen"
	"repro/internal/obs"
	"repro/internal/service"
)

const routePredict = "/v1/predict"

// hotShare is the part of gateway-repeat-mix's requests drawn from the hot
// set; the rest are graphs the gateway has never seen.
const hotShare = 0.9

// primeClients is how many connections fill the gateway cache during
// set-up. It is deliberately above the measured loop's client count: the
// backend's admission queue then forms full batches and the fill is short.
const primeClients = 32

// classifySpec tells the three classify workloads apart.
type classifySpec struct {
	asm        bool // raw listings through the whole front half, else ACFG bodies
	lone       bool // one client, else generatorClients()
	viaGateway bool
}

// classify is a booted classify workload: its inputs, the servers under
// test and the answers collected for verification.
type classify struct {
	spec     classifySpec
	families []string
	inputs   []input // gateway: hot set, then cache filler, then never-seen graphs
	hot      int     // inputs[:hot] are cycled or drawn repeatedly
	coldFrom int     // inputs[coldFrom:] are each sent at most once
	coldNext atomic.Int64
	cycle    atomic.Int64
	draws    []*rand.Rand // per client, for the hot/cold choice

	modelCfg   core.Config
	backend    *service.Server
	backendReg *obs.Registry
	backendLn  *listener
	gw         http.Handler // the gateway's own handler, unwrapped
	gwReg      *obs.Registry
	gwLn       *listener
	front      string // URL the generator talks to

	mu      sync.Mutex
	answers map[int]*answer
	hits    atomic.Int64
	misses  atomic.Int64
}

// answer is the first body returned for an input and how many requests got
// exactly it; every later answer for the input must be byte-identical.
type answer struct {
	body  []byte
	count int
}

func (c *classify) clients() int {
	if c.spec.lone {
		return 1
	}
	return generatorClients()
}

// setupClassify generates the inputs from the seed, boots the servers with
// the configuration the shipped mains default to, and warms them up.
func setupClassify(b *bench, spec classifySpec) (*classify, error) {
	c := &classify{spec: spec, answers: make(map[int]*answer)}
	sz := b.cfg.sizes
	var err error
	switch {
	case spec.asm:
		c.families = malgen.MSKCFGFamilies()
		c.inputs, err = asmInputs(b.rng(1), sz.asmPool)
		c.hot = sz.asmPool
	case spec.viaGateway:
		c.families = malgen.YANCFGFamilies()
		c.inputs, err = gatewayInputs(b)
		c.hot = sz.hotSet
		c.coldFrom = len(c.inputs) - sz.coldPool
	default:
		c.families = malgen.YANCFGFamilies()
		c.inputs, err = acfgInputs(b.rng(1), sz.acfgPool, anyClass, false)
		c.hot = sz.acfgPool
	}
	if err != nil {
		return nil, err
	}
	if !spec.viaGateway {
		c.coldFrom = len(c.inputs)
	}
	for i := 0; i < c.clients(); i++ {
		c.draws = append(c.draws, b.rng(100+int64(i)))
	}

	// A seeded, untrained model: dense arithmetic costs the same trained or
	// not, and set-up stays in seconds.
	c.modelCfg = core.DefaultConfig(len(c.families), acfg.NumAttributes)
	model, err := core.NewModel(c.modelCfg, nil)
	if err != nil {
		return nil, err
	}
	c.backendReg = obs.NewRegistry()
	c.backend, err = service.NewWithRegistry(c.families, c.modelCfg, c.backendReg)
	if err != nil {
		return nil, err
	}
	if err := c.backend.LoadModel(model); err != nil {
		return nil, err
	}
	parent := spanClient
	if spec.viaGateway {
		parent = spanGateway
	}
	if c.backendLn, err = listen(b.rec.wrap(spanService, parent, c.backend.Handler())); err != nil {
		return nil, err
	}
	c.front = c.backendLn.url
	if spec.viaGateway {
		c.gwReg = obs.NewRegistry()
		gw, err := gateway.New(gateway.Options{
			Backends:  []string{c.backendLn.url},
			CacheSize: gateway.DefaultCacheSize,
			Registry:  c.gwReg,
		})
		if err != nil {
			return nil, c.closeAfter(err)
		}
		c.gw = gw.Handler()
		if c.gwLn, err = listen(b.rec.wrap(spanGateway, spanClient, c.gw)); err != nil {
			return nil, c.closeAfter(err)
		}
		c.front = c.gwLn.url
	}
	if err := c.warmUp(b); err != nil {
		return nil, c.closeAfter(err)
	}
	return c, nil
}

// fillerFamily is the YANCFG class the cache filler is drawn from: the
// smallest graphs (8 to 25 vertices). A filler graph only has to occupy a
// cache slot, and small ones keep the fill, which is set-up, short.
const fillerFamily = "Ldpinch"

// gatewayInputs generates the hot set, then (in a full-size run) as many
// filler graphs as bring the cache to capacity, then the never-seen graphs.
func gatewayInputs(b *bench) ([]input, error) {
	sz := b.cfg.sizes
	inputs, err := acfgInputs(b.rng(1), sz.hotSet, anyClass, false)
	if err != nil {
		return nil, err
	}
	if sz.fillCache {
		class := slices.Index(malgen.YANCFGFamilies(), fillerFamily)
		if class < 0 {
			return nil, fmt.Errorf("gateway inputs: no YANCFG class %q", fillerFamily)
		}
		filler, err := acfgInputs(b.rng(2), gateway.DefaultCacheSize-sz.hotSet, class, false)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, filler...)
	}
	cold, err := acfgInputs(b.rng(3), sz.coldPool, anyClass, false)
	if err != nil {
		return nil, err
	}
	return append(inputs, cold...), nil
}

func (c *classify) closeAfter(err error) error {
	_ = c.close() // the set-up error is the one to report
	return err
}

// warmUp opens the connections, grows the servers' workspaces and, behind
// the gateway, fills the prediction cache to capacity (filler first, hot
// set last, so the hot set is most recently used) before anything is timed.
func (c *classify) warmUp(b *bench) error {
	if c.spec.viaGateway {
		fill := c.load()
		fill.clients, fill.duration, fill.ids = primeClients, requestTimeout, &b.ids
		fill.next = firstN(c.coldFrom, func(_, i int) (*input, int, bool) {
			idx := c.coldFrom - 1 - i // descending: filler first, hot set last
			return &c.inputs[idx], idx, true
		})
		if w := fill.run(); w.failed > 0 || w.attempted != c.coldFrom {
			return fmt.Errorf("cache fill: %d of %d requests failed (%d expected): %v", w.failed, w.attempted, c.coldFrom, w.errors)
		}
	}
	warm := c.load()
	warm.duration, warm.ids = requestTimeout, &b.ids
	warm.next = firstN(b.cfg.sizes.warmup, c.next)
	if w := warm.run(); w.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %v", w.failed, w.attempted, w.errors)
	}
	return nil
}

// load is the workload's closed loop, without a duration.
func (c *classify) load() *load {
	return &load{
		clients: c.clients(), url: c.front, route: routePredict, okStatus: http.StatusOK,
		next: c.next, check: c.check,
	}
}

// next cycles the pool on the direct workloads; behind the gateway it draws
// from the hot set with probability hotShare and otherwise takes the next
// never-seen graph, ending the client's loop if those ran out.
func (c *classify) next(client, _ int) (*input, int, bool) {
	var i int
	switch draw := c.draws[client]; {
	case !c.spec.viaGateway:
		i = int((c.cycle.Add(1) - 1) % int64(c.hot))
	case draw.Float64() < hotShare:
		i = draw.Intn(c.hot)
	default:
		if i = c.coldFrom + int(c.coldNext.Add(1)) - 1; i >= len(c.inputs) {
			return nil, 0, false
		}
	}
	return &c.inputs[i], i, true
}

// check is the generator's inline judgement: the status, and that the
// answer is byte-identical to the first one this input got (for a gateway
// hit, the miss body first returned for the graph). What the body says is
// verified after the window, once per distinct input, so the generator
// does not compete with the servers for the cores while they are timed.
func (c *classify) check(idx int, r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if c.spec.viaGateway {
		switch r.header.Get("X-Magic-Cache") {
		case "hit":
			c.hits.Add(1)
		case "miss":
			c.misses.Add(1)
		default:
			return fmt.Errorf("gateway answer without X-Magic-Cache header")
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.answers[idx]
	if a == nil {
		c.answers[idx] = &answer{body: r.body, count: 1}
		return nil
	}
	if !bytes.Equal(a.body, r.body) {
		return fmt.Errorf("answer differs from the first one for this input:\n first %s\n now   %s", a.body, r.body)
	}
	a.count++
	return nil
}

// measure runs the timed windows and fills the end-to-end metrics.
func (c *classify) measure(b *bench) (*measured, error) {
	regs := []*obs.Registry{c.backendReg}
	if c.spec.viaGateway {
		regs = []*obs.Registry{c.gwReg, c.backendReg}
	}
	m, err := b.drive(c.load(), b.timed(), regs...)
	if err != nil {
		return nil, err
	}
	b.crossCheck("front", m.plain, m.before[0], m.after[0], routePredict, http.StatusOK)
	return m, nil
}

// probTolerance is how far a served probability may lie from the reference
// computed in-process on the same graph.
const probTolerance = 1e-3

// verify decodes the answer kept for every distinct input the windows sent
// and holds it against a reference: a private twin of the served model
// (same config, same seed, hence the same weights) run on the same graph —
// for a listing, on the graph this program's own asm → cfg → acfg calls
// produce. Every request that received a rejected answer is a failed
// operation. The cache filler's answers are set-up traffic and are skipped.
func (c *classify) verify(b *bench) error {
	ref, err := core.NewModel(c.modelCfg, nil)
	if err != nil {
		return err
	}
	var idxs []int
	var graphs []*acfg.ACFG
	for idx := range c.answers {
		if idx >= c.hot && idx < c.coldFrom {
			continue
		}
		idxs, graphs = append(idxs, idx), append(graphs, c.inputs[idx].graph)
	}
	want, err := ref.PredictBatch(graphs, 0)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	for i, idx := range idxs {
		a := c.answers[idx]
		var res service.PredictResult
		err := json.Unmarshal(a.body, &res)
		if err == nil {
			err = checkPrediction(&res, c.families, graphs[i], want[i])
		}
		if err != nil {
			b.failed += a.count
			b.problemf("input %d (%d requests): %v", idx, a.count, err)
		}
	}
	fmt.Printf("# verified %d distinct answers against the in-process reference\n", len(idxs))
	return nil
}

// checkPrediction verifies one decoded /v1/predict answer for graph a:
// every family exactly once, probabilities summing to 1, ranked, the
// graph's block count, and each probability within probTolerance of want,
// the reference model's answer in family order.
func checkPrediction(res *service.PredictResult, families []string, a *acfg.ACFG, want []float64) error {
	if res.Blocks != a.NumVertices() {
		return fmt.Errorf("blocks %d, input has %d vertices", res.Blocks, a.NumVertices())
	}
	if len(res.Predictions) != len(families) {
		return fmt.Errorf("%d predictions for %d families", len(res.Predictions), len(families))
	}
	if res.Family != res.Predictions[0].Family {
		return fmt.Errorf("family %q is not the top-ranked %q", res.Family, res.Predictions[0].Family)
	}
	got := make(map[string]float64, len(families))
	sum := 0.0
	for _, p := range res.Predictions {
		if _, dup := got[p.Family]; dup {
			return fmt.Errorf("family %q listed twice", p.Family)
		}
		got[p.Family] = p.Probability
		sum += p.Probability
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("probabilities sum to %v", sum)
	}
	for i, f := range families {
		p, ok := got[f]
		if !ok {
			return fmt.Errorf("family %q missing", f)
		}
		if math.Abs(p-want[i]) > probTolerance {
			return fmt.Errorf("family %q: served %v, reference %v", f, p, want[i])
		}
	}
	return nil
}

// layers turns the traced window into the per-layer metrics of the serving
// path. walk holds the stage walk's medians, for the derived queue wait.
func (c *classify) layers(b *bench, m *measured) {
	out := b.out
	outer := spanService
	if c.spec.viaGateway {
		outer = spanGateway
	}
	out["client.overhead.p50_us"] = median(clientOverhead(m.spans, outer, routePredict))

	svc := ascending(durations(m.spans, func(s span) bool { return s.Name == spanService }))
	out["service.handler.p50_us"] = percentile(svc, 50)
	if tail, err := p99(svc); err == nil {
		out["service.handler.p99_us"] = tail
	} else {
		fmt.Printf("# service.handler.p99_us not reported: %v\n", err)
	}
	backend := len(m.tBefore) - 1
	if size, n := histMean(m.tBefore[backend], m.tAfter[backend], "magic_predict_batch_size", ""); n > 0 {
		out["service.batch_size.mean"] = size
	}
	m.processLayers(out)

	if !c.spec.viaGateway {
		return
	}
	hit := func(s span) bool { return s.Name == spanGateway && s.Cache == "hit" }
	miss := func(s span) bool { return s.Name == spanGateway && s.Cache == "miss" }
	out["gateway.handler_hit.p50_us"] = median(durations(m.spans, hit))
	out["gateway.handler_miss.p50_us"] = median(durations(m.spans, miss))
	var missSpans []span
	for _, s := range m.spans {
		if miss(s) || s.Parent == spanGateway {
			missSpans = append(missSpans, s)
		}
	}
	out["gateway.self_miss.p50_us"] = median(selfTimes(missSpans, spanGateway))

	hits, misses := len(durations(m.spans, hit)), len(durations(m.spans, miss))
	out["gateway.cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	out["gateway.cache_entries.count"] = m.tAfter[0]["magic_gateway_cache_entries"]
	out["gateway.handler_hit.allocs"] = c.hitAllocs(b)
}

// clientOverhead returns, per request on route, what the generator waited
// beyond the outermost handler: loopback HTTP, and a core to run on.
func clientOverhead(spans []span, outer, route string) []float64 {
	handler := make(map[string]float64)
	for _, s := range spans {
		if s.Name == outer && s.Route == route {
			handler[s.Request] = s.durUs()
		}
	}
	var overhead []float64
	for _, s := range spans {
		if h, ok := handler[s.Request]; ok && s.Name == spanClient {
			overhead = append(overhead, s.durUs()-h)
		}
	}
	return overhead
}

// checkCacheCounters holds the generator's hit/miss tally (set-up included)
// against the gateway's counters; they must agree exactly.
func (c *classify) checkCacheCounters(b *bench) error {
	s, err := scrape(c.gwReg)
	if err != nil {
		return err
	}
	hits, misses := s["magic_gateway_cache_hits_total"], s["magic_gateway_cache_misses_total"]
	if int64(hits) != c.hits.Load() || int64(misses) != c.misses.Load() {
		b.problemf("gateway: generator tallied %d hits and %d misses from X-Magic-Cache, /metrics counted %.0f and %.0f",
			c.hits.Load(), c.misses.Load(), hits, misses)
	}
	return nil
}

// discard is the cheapest ResponseWriter: the alloc replay measures the
// gateway's handler, not a recorder.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

// hitAllocs replays hot-set requests one at a time straight into the
// gateway's handler (no network, no generator) and returns the heap
// allocations per cache hit.
func (c *classify) hitAllocs(b *bench) float64 {
	n := min(b.cfg.sizes.walk, c.hot)
	reqs := make([]*http.Request, n)
	bodies := make([]*bytes.Reader, n)
	for i := range reqs {
		bodies[i] = bytes.NewReader(c.inputs[i].body(nil, "alloc-replay"))
		req, err := http.NewRequest(http.MethodPost, routePredict, bodies[i])
		if err != nil {
			b.problemf("alloc replay: %v", err)
			return 0
		}
		reqs[i] = req
	}
	w := &discard{h: make(http.Header)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range reqs {
		c.gw.ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&after)
	if w.h.Get("X-Magic-Cache") != "hit" {
		b.problemf("alloc replay: last answer was a cache %q, want hit", w.h.Get("X-Magic-Cache"))
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// close stops the servers and waits for them.
func (c *classify) close() error {
	var first error
	for _, ln := range []*listener{c.gwLn, c.backendLn} {
		if ln != nil {
			if err := ln.close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if c.backend != nil {
		if err := c.backend.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
