package gateway

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/malgen"
	"repro/internal/obs"
	"repro/internal/service"
)

var testFamilies = []string{"clean", "dirty"}

func testConfig() core.Config {
	cfg := core.DefaultConfig(len(testFamilies), acfg.NumAttributes)
	cfg.ConvSizes = []int{8, 8}
	cfg.HiddenUnits = 16
	cfg.Conv2DChannels = 4
	return cfg
}

// testModel builds a model whose weights depend only on seed, so every
// backend loading the same seed serves identical predictions.
func testModel(t testing.TB, seed int64) *core.Model {
	t.Helper()
	cfg := testConfig()
	cfg.Seed = seed
	m, err := core.NewModel(cfg, []int{10})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testACFG(seed int64) *acfg.ACFG {
	return malgen.GenerateACFG(rand.New(rand.NewSource(seed)), malgen.YanProfileFor(0))
}

// newBackend spins up one magic-server with a model of the given seed.
func newBackend(t testing.TB, seeds ...int64) (*service.Server, *httptest.Server) {
	t.Helper()
	srv, err := service.NewWithRegistry(testFamilies, testConfig(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		if err := srv.LoadModel(testModel(t, seed)); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// newTestGateway builds a gateway over the given backends with an
// isolated registry, returning its HTTP server and a service client
// pointed at it (the gateway speaks the same wire protocol).
func newTestGateway(t testing.TB, backends []string, cacheSize int) (*httptest.Server, *service.Client) {
	t.Helper()
	gw, err := New(Options{
		Backends:     backends,
		CacheSize:    cacheSize,
		MaxRetries:   -1, // fail over between backends instead of retrying one
		RetryBackoff: time.Millisecond,
		Registry:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return ts, service.NewClient(ts.URL)
}

// metricValue scrapes one series from a /metrics endpoint; missing series
// read as 0.
func metricValue(t testing.TB, baseURL, series string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// TestGatewayPredictCacheHit is the dedup acceptance check: the same ACFG
// predicted twice costs one backend inference, the second answer comes
// from the cache with identical bytes, and the hit shows up in
// magic_gateway_cache_hits_total.
func TestGatewayPredictCacheHit(t *testing.T) {
	_, b1 := newBackend(t, 1)
	_, b2 := newBackend(t, 1)
	gwts, client := newTestGateway(t, []string{b1.URL, b2.URL}, 0)

	a := testACFG(7)
	first, err := client.PredictACFG(a)
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.PredictACFG(a)
	if err != nil {
		t.Fatal(err)
	}
	if first.Family != second.Family || first.Predictions[0].Probability != second.Predictions[0].Probability {
		t.Fatalf("cached answer differs: %+v vs %+v", first, second)
	}
	if hits := metricValue(t, gwts.URL, "magic_gateway_cache_hits_total"); hits != 1 {
		t.Fatalf("cache hits = %v, want 1", hits)
	}
	if misses := metricValue(t, gwts.URL, "magic_gateway_cache_misses_total"); misses != 1 {
		t.Fatalf("cache misses = %v, want 1", misses)
	}
}

// TestGatewayFailover kills one backend of three and checks every
// prediction still answers — keys owned by the dead backend fail over to
// the next ring node.
func TestGatewayFailover(t *testing.T) {
	_, b1 := newBackend(t, 1)
	_, b2 := newBackend(t, 1)
	_, b3 := newBackend(t, 1)
	gwts, client := newTestGateway(t, []string{b1.URL, b2.URL, b3.URL}, 0)

	b2.Close()
	for i := 0; i < 12; i++ {
		if _, err := client.PredictACFG(testACFG(int64(i + 1))); err != nil {
			t.Fatalf("predict %d with one backend down: %v", i, err)
		}
	}
	// 12 distinct keys over 3 backends: statistically some routed to the
	// dead node, so failovers must have happened.
	if fo := metricValue(t, gwts.URL, "magic_gateway_failovers_total"); fo == 0 {
		t.Fatal("no failovers recorded despite a dead backend")
	}

	// The health report shows the fleet degraded, not down.
	resp, err := http.Get(gwts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"degraded"`) {
		t.Fatalf("healthz status %d body %s", resp.StatusCode, body)
	}
}

// TestGatewayAllBackendsDown checks the gateway reports down (503) and
// surfaces a 502 on traffic when nothing is reachable.
func TestGatewayAllBackendsDown(t *testing.T) {
	_, b1 := newBackend(t, 1)
	gwts, client := newTestGateway(t, []string{b1.URL}, 0)
	b1.Close()

	resp, err := http.Get(gwts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d, want 503", resp.StatusCode)
	}
	if _, err := client.PredictACFG(testACFG(1)); err == nil {
		t.Fatal("want error with all backends down")
	}
}

// TestGatewayBadRequestNotRetried checks a backend 4xx relays to the
// caller without burning failover attempts on the other nodes.
func TestGatewayBadRequestNotRetried(t *testing.T) {
	_, b1 := newBackend(t, 1)
	_, b2 := newBackend(t, 1)
	gwts, _ := newTestGateway(t, []string{b1.URL, b2.URL}, 0)

	resp, err := http.Post(gwts.URL+"/v1/predict", "application/json",
		strings.NewReader(`{"family":"clean"}`)) // no asm, no acfg
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 relayed from backend", resp.StatusCode)
	}
	if fo := metricValue(t, gwts.URL, "magic_gateway_failovers_total"); fo != 0 {
		t.Fatalf("failovers = %v for a 4xx, want 0", fo)
	}
}

// TestGatewayRoutesSamplesAndAggregatesStats uploads labeled samples
// through the gateway and checks the fleet-wide stats roll-up sees all of
// them exactly once.
func TestGatewayRoutesSamplesAndAggregatesStats(t *testing.T) {
	srv1, b1 := newBackend(t, 1)
	srv2, b2 := newBackend(t, 1)
	_, client := newTestGateway(t, []string{b1.URL, b2.URL}, 0)

	const n = 10
	for i := 0; i < n; i++ {
		if err := client.AddSampleACFG("clean", fmt.Sprintf("s%d", i), testACFG(int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["clean"] != n {
		t.Fatalf("aggregated clean count = %d, want %d", stats["clean"], n)
	}
	_ = srv1
	_ = srv2
}

// TestGatewayModelsFanOutFlushesCache promotes an older version through
// the gateway and checks (a) every backend switched, (b) the prediction
// cache flushed, so the next predict is a miss answered by the newly
// promoted version.
func TestGatewayModelsFanOutFlushesCache(t *testing.T) {
	// Each backend holds v1 (seed 1) and v2 (seed 2), v2 active.
	_, b1 := newBackend(t, 1, 2)
	_, b2 := newBackend(t, 1, 2)
	gwts, client := newTestGateway(t, []string{b1.URL, b2.URL}, 0)

	mA, mB := testModel(t, 1), testModel(t, 2)
	a := testACFG(7)
	wantV2 := mB.Predict(a)
	res, err := client.PredictACFG(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Predictions[0].Probability != maxProb(wantV2) {
		t.Fatalf("pre-promote prediction %v not from v2", res.Predictions[0])
	}

	// Promote v1 fleet-wide through the gateway.
	resp, err := http.Post(gwts.URL+"/v1/models", "application/json",
		strings.NewReader(`{"action":"promote","version":"mv-000001"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet promote status %d: %s", resp.StatusCode, body)
	}

	// The cached v2 answer must be gone: same ACFG now answers from v1.
	wantV1 := mA.Predict(a)
	res, err = client.PredictACFG(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelVersion != "mv-000001" {
		t.Fatalf("post-promote version %q, want mv-000001", res.ModelVersion)
	}
	if res.Predictions[0].Probability != maxProb(wantV1) {
		t.Fatalf("post-promote prediction %v not from v1 (stale cache?)", res.Predictions[0])
	}

	// Both backends really switched (not just the one that answered).
	for _, b := range []string{b1.URL, b2.URL} {
		info, err := service.NewClient(b).ListModels(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if info.Active != "mv-000001" {
			t.Fatalf("backend %s active %q after fleet promote", b, info.Active)
		}
	}
}

func maxProb(probs []float64) float64 {
	best := probs[0]
	for _, p := range probs[1:] {
		if p > best {
			best = p
		}
	}
	return best
}

// BenchmarkGatewayPredict measures the gateway serving path: cache hit vs
// miss, and (on the miss path) the backend's admission queue batching vs
// per-request execution under parallel load.
func BenchmarkGatewayPredict(b *testing.B) {
	run := func(b *testing.B, batchMax int, batchWait time.Duration, fn func(b *testing.B, client *service.Client, pool []*acfg.ACFG)) {
		srv, ts := newBackend(b, 1)
		srv.SetBatching(batchMax, batchWait)
		_, client := newTestGateway(b, []string{ts.URL}, 64)
		pool := make([]*acfg.ACFG, 256)
		for i := range pool {
			pool[i] = testACFG(int64(i + 1))
		}
		b.ResetTimer()
		fn(b, client, pool)
	}

	b.Run("cache-hit", func(b *testing.B) {
		run(b, 1, 0, func(b *testing.B, client *service.Client, pool []*acfg.ACFG) {
			if _, err := client.PredictACFG(pool[0]); err != nil { // warm the entry
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.PredictACFG(pool[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("cache-miss-unbatched", func(b *testing.B) {
		run(b, 1, 0, func(b *testing.B, client *service.Client, pool []*acfg.ACFG) {
			// 256 distinct graphs over a 64-entry cache: effectively all
			// misses once the LRU churns.
			var next atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					a := pool[int(next.Add(1))%len(pool)]
					if _, err := client.PredictACFG(a); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	})
	b.Run("cache-miss-batched", func(b *testing.B) {
		run(b, service.DefaultBatchMaxSize, service.DefaultBatchMaxWait,
			func(b *testing.B, client *service.Client, pool []*acfg.ACFG) {
				var next atomic.Int64
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						a := pool[int(next.Add(1))%len(pool)]
						if _, err := client.PredictACFG(a); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
	})
}
