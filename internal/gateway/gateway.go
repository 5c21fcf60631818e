package gateway

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/acfg"
	"repro/internal/obs"
	"repro/internal/service"
)

// maxBodyBytes bounds every request body the gateway accepts, matching
// the backend's own cap so the gateway never forwards a body a backend
// would reject for size.
const maxBodyBytes = 16 << 20

// Options configures a Gateway.
type Options struct {
	// Backends are the magic-server base URLs forming the fleet.
	Backends []string
	// CacheSize bounds the prediction cache; < 1 selects DefaultCacheSize.
	CacheSize int
	// MaxRetries and RetryBackoff tune the per-backend client's retry
	// policy (zero values select the service client defaults). Retries
	// handle transient failures on one backend; exhausting them moves the
	// request to the next ring node.
	MaxRetries   int
	RetryBackoff time.Duration
	// HTTPClient, when non-nil, issues all backend requests — the escape
	// hatch for custom timeouts or test doubles.
	HTTPClient *http.Client
	// Registry receives the gateway's metrics; nil selects obs.Default.
	Registry *obs.Registry
}

// Gateway routes classification traffic over a fleet of magic-server
// backends. See the package comment for the full semantics.
type Gateway struct {
	ring    *Ring
	clients map[string]*service.Client
	cache   *predictionCache

	registry    *obs.Registry
	httpMetrics *obs.HTTPMetrics
	metrics     *obs.GatewayMetrics
}

// New builds a gateway over the given backends.
func New(opts Options) (*Gateway, error) {
	ring, err := NewRing(opts.Backends)
	if err != nil {
		return nil, err
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default()
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: service.DefaultTimeout}
	}
	g := &Gateway{
		ring:        ring,
		clients:     make(map[string]*service.Client, len(opts.Backends)),
		cache:       newPredictionCache(opts.CacheSize),
		registry:    reg,
		httpMetrics: obs.NewHTTPMetrics(reg),
		metrics:     obs.NewGatewayMetrics(reg),
	}
	for _, b := range ring.Backends() {
		c := service.NewClientWithHTTP(b, hc)
		c.MaxRetries = opts.MaxRetries
		c.RetryBackoff = opts.RetryBackoff
		g.clients[b] = c
	}
	return g, nil
}

// Handler returns the gateway's HTTP routing, instrumented like the
// backend's own handler (obs.HTTPMetrics, labeled by route pattern).
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, endpoint string, h http.HandlerFunc) {
		mux.Handle(pattern, g.httpMetrics.WrapFunc(endpoint, h))
	}
	handle("GET /healthz", "/healthz", g.handleHealthz)
	handle("GET /metrics", "/metrics", g.registry.Handler().ServeHTTP)
	handle("POST /v1/predict", "/v1/predict", g.handlePredict)
	handle("POST /v1/samples", "/v1/samples", g.handleAddSample)
	handle("GET /v1/stats", "/v1/stats", g.handleStats)
	handle("GET /v1/models", "/v1/models", g.handleModels)
	handle("POST /v1/models", "/v1/models", g.handleModelsPost)
	return mux
}

// sampleEnvelope is the subset of the backend's sample body the gateway
// inspects: enough to compute the routing and cache key. The raw bytes
// are forwarded verbatim, so fields the gateway does not model pass
// through untouched.
type sampleEnvelope struct {
	ASM  string     `json:"asm,omitempty"`
	ACFG *acfg.ACFG `json:"acfg,omitempty"`
}

// readBody slurps a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("read request: %w", err)
	}
	return raw, nil
}

// routingKey derives the consistent-hash key for an uploaded sample: the
// canonical ACFG content hash when one was supplied (so the same graph
// routes identically however it was encoded), else a digest of the raw
// body.
func routingKey(env *sampleEnvelope, raw []byte) [sha256.Size]byte {
	if env.ACFG != nil {
		return env.ACFG.ContentHash()
	}
	return sha256.Sum256(raw)
}

// forward walks the ring sequence for key, sending the payload to each
// backend in turn until one answers. A backend answering with a 4xx stops
// the walk immediately — the request itself is bad, and the next backend
// would only say the same — while connection errors, exhausted retries
// and 5xx responses fail the request over to the next node.
func (g *Gateway) forward(ctx context.Context, seq []string, method, path string, payload []byte, wantStatus int) ([]byte, error) {
	var lastErr error
	for i, backend := range seq {
		if i > 0 {
			g.metrics.Failover()
		}
		raw, err := g.call(ctx, backend, method, path, payload, wantStatus)
		if err == nil {
			return raw, nil
		}
		lastErr = err
		var apiErr *service.APIError
		if errors.As(err, &apiErr) && apiErr.Status < 500 {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("gateway: all %d backends failed: %w", len(seq), lastErr)
}

// call issues one backend request (with the client's own retry budget)
// and records the per-backend telemetry.
func (g *Gateway) call(ctx context.Context, backend, method, path string, payload []byte, wantStatus int) ([]byte, error) {
	start := time.Now()
	raw, err := g.clients[backend].Forward(ctx, method, path, payload, wantStatus)
	failed := err != nil
	var apiErr *service.APIError
	if errors.As(err, &apiErr) && apiErr.Status < 500 {
		// The backend answered decisively; only infrastructure failures
		// count against it.
		failed = false
	}
	g.metrics.ObserveBackendCall(backend, path, time.Since(start).Seconds(), failed)
	g.metrics.SetBackendUp(backend, !failed)
	return raw, err
}

// relayError writes a forwarding failure to the gateway's client: a
// backend's own response (status and body) when one was received, else a
// 502 naming the infrastructure failure.
func relayError(w http.ResponseWriter, err error) {
	var apiErr *service.APIError
	if errors.As(err, &apiErr) && len(apiErr.Body) > 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(apiErr.Status)
		_, _ = w.Write(apiErr.Body)
		return
	}
	service.WriteError(w, http.StatusBadGateway, err)
}

func (g *Gateway) handlePredict(w http.ResponseWriter, r *http.Request) {
	raw, err := readBody(w, r)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	var env sampleEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		service.WriteError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	key := routingKey(&env, raw)

	// Only canonical ACFG submissions are cacheable: two asm listings can
	// differ textually yet describe the same program, so their raw-body
	// digests are not content identities.
	cacheable := env.ACFG != nil
	if cacheable {
		if body, ok := g.cache.lookup(key); ok {
			g.metrics.CacheHit()
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Magic-Cache", "hit")
			_, _ = w.Write(body)
			return
		}
		g.metrics.CacheMiss()
	}

	body, err := g.forward(r.Context(), g.ring.Sequence(key), http.MethodPost, "/v1/predict", raw, http.StatusOK)
	if err != nil {
		relayError(w, err)
		return
	}
	// Learn the fleet's serving version from the response; a version
	// change flushes the cache (those entries belong to the old model).
	var res service.PredictResult
	if json.Unmarshal(body, &res) == nil && res.ModelVersion != "" {
		if g.cache.setVersion(res.ModelVersion) {
			g.metrics.SetActiveVersion(res.ModelVersion)
		}
	}
	if cacheable {
		g.cache.store(key, body)
		g.metrics.SetCacheEntries(g.cache.len())
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Magic-Cache", "miss")
	_, _ = w.Write(body)
}

func (g *Gateway) handleAddSample(w http.ResponseWriter, r *http.Request) {
	raw, err := readBody(w, r)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	var env sampleEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		service.WriteError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	key := routingKey(&env, raw)
	body, err := g.forward(r.Context(), g.ring.Sequence(key), http.MethodPost, "/v1/samples", raw, http.StatusCreated)
	if err != nil {
		relayError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_, _ = w.Write(body)
}

// backendHealth is one backend's slice of the gateway health report.
type backendHealth struct {
	Up            bool   `json:"up"`
	ModelVersion  string `json:"model_version,omitempty"`
	CorpusSamples int    `json:"corpus_samples,omitempty"`
	Error         string `json:"error,omitempty"`
}

// healthzResponse is the gateway /healthz payload: per-backend health and
// the model version the healthy majority is serving.
type healthzResponse struct {
	Status       string                   `json:"status"` // ok | degraded | down
	Healthy      int                      `json:"healthy"`
	ModelVersion string                   `json:"model_version,omitempty"`
	Backends     map[string]backendHealth `json:"backends"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	backends := g.ring.Backends()
	results := make([]backendHealth, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			hs, err := g.clients[b].HealthInfoContext(r.Context())
			if err != nil {
				results[i] = backendHealth{Error: err.Error()}
				g.metrics.SetBackendUp(b, false)
				return
			}
			results[i] = backendHealth{Up: true, ModelVersion: hs.ModelVersion, CorpusSamples: hs.CorpusSamples}
			g.metrics.SetBackendUp(b, true)
		}(i, b)
	}
	wg.Wait()

	resp := healthzResponse{Backends: make(map[string]backendHealth, len(backends))}
	versionVotes := make(map[string]int)
	for i, b := range backends {
		resp.Backends[b] = results[i]
		if results[i].Up {
			resp.Healthy++
			if v := results[i].ModelVersion; v != "" {
				versionVotes[v]++
			}
		}
	}
	resp.ModelVersion = majorityVersion(versionVotes)
	status := http.StatusOK
	switch {
	case resp.Healthy == len(backends):
		resp.Status = "ok"
	case resp.Healthy > 0:
		resp.Status = "degraded"
	default:
		resp.Status = "down"
		status = http.StatusServiceUnavailable
	}
	service.WriteJSON(w, status, resp)
}

// majorityVersion picks the version most healthy backends report, ties
// broken by version string order for determinism.
func majorityVersion(votes map[string]int) string {
	versions := make([]string, 0, len(votes))
	for v := range votes {
		versions = append(versions, v)
	}
	sort.Strings(versions)
	best := ""
	for _, v := range versions {
		if best == "" || votes[v] > votes[best] {
			best = v
		}
	}
	return best
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	backends := g.ring.Backends()
	families := make([]map[string]int, len(backends))
	errs := make([]error, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			families[i], errs[i] = g.clients[b].StatsContext(r.Context())
		}(i, b)
	}
	wg.Wait()

	total := make(map[string]int)
	perBackend := make(map[string]any, len(backends))
	reached := 0
	samples := 0
	for i, b := range backends {
		if errs[i] != nil {
			perBackend[b] = map[string]string{"error": errs[i].Error()}
			continue
		}
		reached++
		n := 0
		for f, c := range families[i] {
			total[f] += c
			n += c
		}
		samples += n
		perBackend[b] = map[string]int{"samples": n}
	}
	if reached == 0 {
		service.WriteError(w, http.StatusBadGateway, fmt.Errorf("gateway: no backend reachable"))
		return
	}
	service.WriteJSON(w, http.StatusOK, map[string]any{
		"samples":  samples,
		"families": total,
		"backends": perBackend,
	})
}

// modelsResult is one backend's answer to a fleet models operation.
type modelsResult struct {
	Models *service.ModelsInfo `json:"models,omitempty"`
	Error  string              `json:"error,omitempty"`
}

// fanOutModels issues the same models operation against every backend
// concurrently and reports per-backend outcomes. ok is false when any
// backend failed — a fleet promote is only done when the whole fleet
// switched.
func (g *Gateway) fanOutModels(ctx context.Context, method string, payload []byte) (map[string]modelsResult, bool) {
	backends := g.ring.Backends()
	results := make([]modelsResult, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			raw, err := g.call(ctx, b, method, "/v1/models", payload, http.StatusOK)
			if err != nil {
				results[i] = modelsResult{Error: err.Error()}
				return
			}
			var info service.ModelsInfo
			if err := json.Unmarshal(raw, &info); err != nil {
				results[i] = modelsResult{Error: fmt.Sprintf("decode models: %v", err)}
				return
			}
			results[i] = modelsResult{Models: &info}
		}(i, b)
	}
	wg.Wait()

	out := make(map[string]modelsResult, len(backends))
	ok := true
	for i, b := range backends {
		out[b] = results[i]
		if results[i].Error != "" {
			ok = false
		}
	}
	return out, ok
}

func (g *Gateway) handleModels(w http.ResponseWriter, r *http.Request) {
	results, ok := g.fanOutModels(r.Context(), http.MethodGet, nil)
	status := http.StatusOK
	if !ok {
		status = http.StatusBadGateway
	}
	service.WriteJSON(w, status, map[string]any{"backends": results})
}

// handleModelsPost relays a promote/rollback to every backend, so the
// fleet swaps together. Partial failure is reported as 502 with the
// per-backend outcomes; the operator retries (promote is idempotent)
// until the fleet converges.
func (g *Gateway) handleModelsPost(w http.ResponseWriter, r *http.Request) {
	raw, err := readBody(w, r)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	results, ok := g.fanOutModels(r.Context(), http.MethodPost, raw)
	if ok {
		// The fleet switched versions; cached predictions belong to the
		// outgoing model. (A promote issued directly to a backend, behind
		// the gateway's back, is instead caught lazily when the next cache
		// miss returns an unexpected version — which is why fleet promotes
		// should go through the gateway.)
		for _, res := range results {
			if res.Models != nil && res.Models.Active != "" {
				if g.cache.setVersion(res.Models.Active) {
					g.metrics.SetActiveVersion(res.Models.Active)
					g.metrics.SetCacheEntries(g.cache.len())
				}
				break
			}
		}
	}
	status := http.StatusOK
	if !ok {
		status = http.StatusBadGateway
	}
	service.WriteJSON(w, status, map[string]any{"backends": results})
}
