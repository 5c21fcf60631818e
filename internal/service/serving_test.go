package service

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/malgen"
	"repro/internal/obs"
)

// testModel builds a small model whose weights are driven by seed, so two
// different seeds give observably different predictions.
func testModel(t *testing.T, seed int64) *core.Model {
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

// TestBatcherBitIdentical checks the admission queue's core numerical
// contract: predictions that flowed through a coalesced batch are
// bit-identical to calling Predict serially, at every batching
// configuration.
func TestBatcherBitIdentical(t *testing.T) {
	m := testModel(t, 3)
	samples := make([]*acfg.ACFG, 16)
	want := make([][]float64, len(samples))
	for i := range samples {
		samples[i] = testACFG(int64(i + 1))
		want[i] = m.Predict(samples[i])
	}
	for _, tc := range []struct {
		name    string
		maxSize int
		maxWait time.Duration
	}{
		{"window", 8, 2 * time.Millisecond},
		{"no window", 8, 0},
		{"batch of one", 1, time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newBatcher(m.Weights, 2, tc.maxSize, tc.maxWait, obs.NewServingMetrics(obs.NewRegistry()))
			var wg sync.WaitGroup
			got := make([][]float64, len(samples))
			errs := make([]error, len(samples))
			for i := range samples {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = b.predict(context.Background(), samples[i])
				}(i)
			}
			wg.Wait()
			for i := range samples {
				if errs[i] != nil {
					t.Fatalf("sample %d: %v", i, errs[i])
				}
				if len(got[i]) != len(want[i]) {
					t.Fatalf("sample %d: %d probs, want %d", i, len(got[i]), len(want[i]))
				}
				for c := range want[i] {
					if got[i][c] != want[i][c] {
						t.Fatalf("sample %d class %d: batched %v != serial %v", i, c, got[i][c], want[i][c])
					}
				}
			}
		})
	}
}

// TestBatcherCoalesces drives concurrent requests through a batcher with a
// generous window and checks they actually shared batches rather than each
// paying its own inference sweep.
func TestBatcherCoalesces(t *testing.T) {
	m := testModel(t, 4)
	reg := obs.NewRegistry()
	b := newBatcher(m.Weights, 2, 32, 50*time.Millisecond, obs.NewServingMetrics(reg))
	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.predict(context.Background(), testACFG(int64(i+1))); err != nil {
				t.Errorf("predict %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()
	samples := scrape(t, ts.URL)
	batches := samples["magic_predict_batches_total"]
	if batches == 0 || batches >= n {
		t.Fatalf("batches = %v, want coalescing (0 < batches < %d)", batches, n)
	}
	if got := samples["magic_predict_batch_size_count"]; got != batches {
		t.Fatalf("batch size observations = %v, want %v", got, batches)
	}
}

// TestBatcherContextCancelled checks a queued request abandons cleanly
// when its context dies while waiting for the batch window.
func TestBatcherContextCancelled(t *testing.T) {
	m := testModel(t, 5)
	b := newBatcher(m.Weights, 1, 32, 200*time.Millisecond, nil)

	// Occupy the leader slot with a long window, then cancel a follower.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := b.predict(context.Background(), testACFG(1)); err != nil {
			t.Errorf("leader: %v", err)
		}
	}()
	for {
		b.mu.Lock()
		leading := b.leading
		b.mu.Unlock()
		if leading {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.predict(ctx, testACFG(2)); err != context.Canceled {
		t.Fatalf("cancelled follower error = %v, want context.Canceled", err)
	}
	wg.Wait()
}

// TestHealthzPayload checks /healthz reports the serving model version and
// corpus size.
func TestHealthzPayload(t *testing.T) {
	srv, _, client := newTestServer(t, []string{"clean", "dirty"})
	hs, err := client.HealthInfo()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Status != "ok" || hs.ModelVersion != "" || hs.CorpusSamples != 0 {
		t.Fatalf("empty server health = %+v", hs)
	}
	if err := client.AddSampleASM("clean", "", chainProgram); err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadModel(testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	hs, err = client.HealthInfo()
	if err != nil {
		t.Fatal(err)
	}
	if hs.ModelVersion == "" || hs.CorpusSamples != 1 {
		t.Fatalf("health after load = %+v", hs)
	}
}

// TestModelsEndpoint exercises the registry API end to end: install two
// versions, promote the old one back, roll back, and reject bad requests.
func TestModelsEndpoint(t *testing.T) {
	srv, ts, client := newTestServer(t, []string{"clean", "dirty"})
	ctx := context.Background()

	info, err := client.ListModels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Active != "" || len(info.Versions) != 0 {
		t.Fatalf("empty registry = %+v", info)
	}

	if err := srv.LoadModel(testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadModel(testModel(t, 2)); err != nil {
		t.Fatal(err)
	}
	info, err = client.ListModels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Versions) != 2 {
		t.Fatalf("versions = %+v", info.Versions)
	}
	v1, v2 := info.Versions[0].Version, info.Versions[1].Version
	if info.Active != v2 || info.Previous != v1 {
		t.Fatalf("active %q previous %q, want %q %q", info.Active, info.Previous, v2, v1)
	}

	// Promote the first version back (blue/green).
	info, err = client.PromoteModel(ctx, v1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Active != v1 || info.Previous != v2 {
		t.Fatalf("after promote: active %q previous %q", info.Active, info.Previous)
	}
	// Rollback restores v2.
	info, err = client.RollbackModel(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Active != v2 || info.Previous != v1 {
		t.Fatalf("after rollback: active %q previous %q", info.Active, info.Previous)
	}

	// Error paths: unknown version, missing version, bad action.
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"action":"promote","version":"mv-999999"}`, http.StatusNotFound},
		{`{"action":"promote"}`, http.StatusBadRequest},
		{`{"action":"dance"}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/models", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
}

// TestRollbackWithoutPrevious rejects a rollback when only one version
// ever served.
func TestRollbackWithoutPrevious(t *testing.T) {
	srv, _, client := newTestServer(t, []string{"clean", "dirty"})
	if err := srv.LoadModel(testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.RollbackModel(context.Background()); err == nil {
		t.Fatal("want error rolling back with no previous version")
	}
}

// TestRegistryEviction registers more versions than the bound and checks
// the registry holds the bound while protecting active + rollback target.
func TestRegistryEviction(t *testing.T) {
	srv, _, client := newTestServer(t, []string{"clean", "dirty"})
	for i := 0; i < maxModelVersions+3; i++ {
		if err := srv.LoadModel(testModel(t, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	info, err := client.ListModels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Versions) != maxModelVersions {
		t.Fatalf("retained %d versions, want %d", len(info.Versions), maxModelVersions)
	}
	found := map[string]bool{}
	for _, v := range info.Versions {
		found[v.Version] = true
	}
	if !found[info.Active] || !found[info.Previous] {
		t.Fatalf("active/previous evicted: %+v", info)
	}
}

// TestHotSwapNeverMixesVersions is the serving-tier race test: concurrent
// /v1/predict traffic runs while promote and rollback flip the active
// version, and every response must (a) succeed and (b) carry probabilities
// that exactly match the model version it claims to have used. A mixed or
// torn batch would produce probabilities from one version labeled with the
// other. Run under -race this also proves the swap path is data-race-free.
func TestHotSwapNeverMixesVersions(t *testing.T) {
	srv, _, client := newTestServer(t, []string{"clean", "dirty"})
	srv.SetBatching(8, 2*time.Millisecond)

	mA, mB := testModel(t, 10), testModel(t, 20)
	a := testACFG(7)
	if err := srv.LoadModel(mA); err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadModel(mB); err != nil {
		t.Fatal(err)
	}
	info, err := client.ListModels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantByVersion := map[string][]float64{
		info.Versions[0].Version: mA.Predict(a),
		info.Versions[1].Version: mB.Predict(a),
	}
	if d := diffProbs(wantByVersion[info.Versions[0].Version], wantByVersion[info.Versions[1].Version]); !d {
		t.Fatal("test needs models with distinguishable outputs")
	}

	stop := make(chan struct{})
	var swaps sync.WaitGroup
	swaps.Add(1)
	go func() {
		defer swaps.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if i%2 == 0 {
				_, err = client.PromoteModel(context.Background(), info.Versions[0].Version)
			} else {
				_, err = client.PromoteModel(context.Background(), info.Versions[1].Version)
			}
			if err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
		}
	}()

	var preds sync.WaitGroup
	for g := 0; g < 4; g++ {
		preds.Add(1)
		go func() {
			defer preds.Done()
			for i := 0; i < 25; i++ {
				res, err := client.PredictACFG(a)
				if err != nil {
					t.Errorf("predict: %v", err)
					return
				}
				want, ok := wantByVersion[res.ModelVersion]
				if !ok {
					t.Errorf("response claims unknown version %q", res.ModelVersion)
					return
				}
				for _, p := range res.Predictions {
					label := srv.labelOf[p.Family]
					if p.Probability != want[label] {
						t.Errorf("version %s: probability %v != that version's %v (mixed batch?)",
							res.ModelVersion, p.Probability, want[label])
						return
					}
				}
			}
		}()
	}
	preds.Wait()
	close(stop)
	swaps.Wait()
}

// diffProbs reports whether two probability vectors differ anywhere.
func diffProbs(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return true
		}
	}
	return false
}

// TestPredictResponseCarriesVersion checks the wire field used by the
// gateway's cache invalidation.
func TestPredictResponseCarriesVersion(t *testing.T) {
	srv, ts, _ := newTestServer(t, []string{"clean", "dirty"})
	if err := srv.LoadModel(testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(sampleBody{ACFG: testACFG(1)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr PredictResult
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.ModelVersion == "" {
		t.Fatal("predict response missing modelVersion")
	}
}

// TestClientBackoffRespectsContext is the regression test for the retry
// loop: a context cancelled while the client is backing off between
// attempts must abort the wait immediately with the context's error, not
// sleep out the remaining backoff.
func TestClientBackoffRespectsContext(t *testing.T) {
	// No listener: every attempt fails instantly with a connection error,
	// so the client spends essentially all its time in backoff.
	c := NewClient("http://127.0.0.1:1")
	c.MaxRetries = 10
	c.RetryBackoff = time.Hour

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := c.HealthContext(ctx)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("want error from cancelled context")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("error = %v, want context cancellation", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled request took %v: backoff ignored the context", elapsed)
	}
}

// TestSleepBackoffPreCancelled checks an already-dead context returns
// before any timer is armed.
func TestSleepBackoffPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := sleepBackoff(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("pre-cancelled sleep blocked")
	}
}
