// Package service implements the deployment scenario of the paper's
// conclusion (Section VII): MAGIC as a cloud service. Users upload labeled
// samples to grow a corpus, trigger (re)training, and submit unknown
// disassembly or pre-built ACFGs for classification. The server is a plain
// net/http application with JSON endpoints:
//
//	GET    /healthz         liveness probe
//	GET    /metrics         Prometheus text-format metrics (see internal/obs)
//	GET    /v1/model        current model metadata
//	GET    /v1/stats        corpus statistics per family
//	POST   /v1/samples      add one labeled sample  {family, asm|acfg}
//	POST   /v1/train        start an async training job {epochs} → 202 + job ID
//	GET    /v1/train/{id}   training-job status and per-epoch progress
//	DELETE /v1/train/{id}   cooperative job cancellation
//	POST   /v1/predict      classify one sample     {asm|acfg} → ranked families
//	GET    /v1/models       retained model versions, active + rollback target
//	POST   /v1/models       {action: promote|rollback} blue/green model swap
//
// State is in memory, guarded by a single mutex, and optionally durable:
// AttachStore gives the server a state directory whose corpus segments and
// model checkpoint are replayed on startup (see Store), and from then on the
// corpus index holds no decoded sample — it reads each back from its
// segment file when a training job needs it (see index.go). Training
// runs as an asynchronous job (one at a time) while predictions against
// the previous model keep serving. Completed models enter a bounded version
// registry (see registry.go); the active version serves /v1/predict
// through an admission queue that coalesces concurrent requests into
// batches for the model's data-parallel inference engine (see batcher.go).
// SetParallelism sizes the inference worker count and the training worker
// count; SetBatching tunes the admission queue.
//
// Every endpoint is instrumented through obs.HTTPMetrics (request counts,
// in-flight gauge, latency histograms, all labeled by route), training
// publishes per-epoch telemetry through obs.TrainingMetrics, and the
// asm→cfg→acfg extraction pipeline reports stage timers. DESIGN.md's
// "Observability" section lists the metric names.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/obs"
)

// Server is the MAGIC classification service.
type Server struct {
	cfgTemplate core.Config

	mu       sync.Mutex
	families []string
	labelOf  map[string]int
	// corpus indexes every accepted sample, deduplicated by content hash
	// (see index.go): a (segment file, frame offset) reference with a state
	// dir, the decoded sample without one. Populated by AttachStore replay.
	corpus    *corpusIndex
	model     *core.Weights // the active version's; nil until one is installed
	trainedAt time.Time

	// trainedThrough is the corpus length covered by the last completed
	// training job; the continual job mode fine-tunes on samples past it.
	trainedThrough int

	// Asynchronous training jobs: curJob is the single admitted run (nil
	// when idle); jobs/jobOrder keep a bounded history for status queries.
	curJob   *trainJob
	jobs     map[string]*trainJob
	jobOrder []string
	jobSeq   int

	// store, when non-nil, is the durable state directory (corpus segments
	// + model checkpoint). See AttachStore.
	store *Store

	// Versioned model registry (registry.go): every installed model is
	// retained under a version ID so an operator can blue/green promote or
	// instantly roll back via /v1/models. serving is the lock-free read
	// path for /v1/predict — an atomic snapshot of the active version and
	// its admission-queue batcher, swapped whole on promote/rollback so a
	// request never observes a mix of versions.
	serving       atomic.Pointer[servingState]
	versions      map[string]*modelVersion
	versionOrder  []string // registration order, oldest first
	activeVersion string
	prevVersion   string // rollback target
	modelSeq      int

	// Admission-queue tuning for new serving states (SetBatching).
	batchMaxSize int
	batchMaxWait time.Duration

	// parallelism is the worker count for training batches and batched
	// inference. 0 selects runtime.GOMAXPROCS.
	parallelism int

	now func() time.Time

	registry       *obs.Registry
	httpMetrics    *obs.HTTPMetrics
	trainMetrics   *obs.TrainingMetrics
	servingMetrics *obs.ServingMetrics
	corpusMetrics  *obs.CorpusMetrics
	predictions    *obs.CounterVec // family
	corpusSize     *obs.GaugeVec   // family
	modelParams    *obs.Gauge
}

// New builds a server for a fixed family universe. cfgTemplate supplies the
// model architecture; Classes is overridden to match the families. Metrics
// are published on obs.Default, which is also where the ingestion pipeline
// stage timers live — so /metrics shows the whole system.
func New(families []string, cfgTemplate core.Config) (*Server, error) {
	return NewWithRegistry(families, cfgTemplate, obs.Default())
}

// NewWithRegistry is New with metrics published on a caller-owned
// registry, which tests use for isolation. Note the pipeline stage timers
// always record on obs.Default regardless.
func NewWithRegistry(families []string, cfgTemplate core.Config, reg *obs.Registry) (*Server, error) {
	if len(families) < 2 {
		return nil, fmt.Errorf("service: need at least 2 families, got %d", len(families))
	}
	labelOf := make(map[string]int, len(families))
	for i, f := range families {
		if f == "" {
			return nil, fmt.Errorf("service: empty family name at %d", i)
		}
		if _, dup := labelOf[f]; dup {
			return nil, fmt.Errorf("service: duplicate family %q", f)
		}
		labelOf[f] = i
	}
	cfgTemplate.Classes = len(families)
	if cfgTemplate.AttrDim == 0 {
		cfgTemplate.AttrDim = acfg.NumAttributes
	}
	if err := cfgTemplate.Validate(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	corpusMetrics := obs.NewCorpusMetrics(reg)
	return &Server{
		cfgTemplate:  cfgTemplate,
		families:     families,
		labelOf:      labelOf,
		corpus:       newCorpusIndex(len(families), corpusMetrics),
		jobs:         make(map[string]*trainJob),
		versions:     make(map[string]*modelVersion),
		batchMaxSize: DefaultBatchMaxSize,
		batchMaxWait: DefaultBatchMaxWait,
		now:          time.Now,

		registry:       reg,
		httpMetrics:    obs.NewHTTPMetrics(reg),
		trainMetrics:   obs.NewTrainingMetrics(reg),
		servingMetrics: obs.NewServingMetrics(reg),
		corpusMetrics:  corpusMetrics,
		predictions: reg.CounterVec("magic_predictions_total",
			"Predictions served, by top-ranked family.", "family"),
		corpusSize: reg.GaugeVec("magic_corpus_samples",
			"Labeled samples currently in the corpus, by family.", "family"),
		modelParams: reg.Gauge("magic_model_parameters",
			"Parameter count of the currently installed model (0 when none)."),
	}, nil
}

// SetParallelism sets the worker count used for training batches and
// batched inference. n < 1 selects runtime.GOMAXPROCS. Serving snapshots
// of every retained model version are rebuilt at the new width; in-flight
// predictions finish on the snapshot they started with.
func (s *Server) SetParallelism(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parallelism = n
	s.rebuildServingLocked()
	return nil
}

// SetBatching tunes the prediction admission queue: a batch never exceeds
// maxSize samples (< 1 selects DefaultBatchMaxSize) and a request waits at
// most maxWait for companions (0 disables the window, < 0 selects
// DefaultBatchMaxWait). Applies to every retained version immediately.
func (s *Server) SetBatching(maxSize int, maxWait time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batchMaxSize = maxSize
	s.batchMaxWait = maxWait
	s.rebuildServingLocked()
}

// rebuildServingLocked rebuilds every retained version's serving snapshot
// under the current parallelism and batching configuration, re-pointing
// the active snapshot. Callers hold s.mu.
func (s *Server) rebuildServingLocked() {
	for _, mv := range s.versions {
		mv.state = s.buildServingStateLocked(mv.model)
	}
	if mv, ok := s.versions[s.activeVersion]; ok {
		s.serving.Store(mv.state)
	}
}

// workersLocked resolves the configured parallelism; callers hold s.mu.
func (s *Server) workersLocked() int {
	if s.parallelism > 0 {
		return s.parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// LoadModel installs a pre-trained model's weights (e.g. from magic-train),
// which are published from then on: m may still predict, but not train.
func (s *Server) LoadModel(m *core.Model) error {
	if err := s.checkModel(m.Weights); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.installModelLocked(m.Weights, "load")
	return nil
}

// checkModel reports why m cannot serve this server's families and inputs.
func (s *Server) checkModel(m *core.Weights) error {
	if m.Config.Classes != len(s.families) {
		return fmt.Errorf("model has %d classes, server has %d families", m.Config.Classes, len(s.families))
	}
	if m.Config.AttrDim != s.cfgTemplate.AttrDim {
		return fmt.Errorf("model reads %d attributes per block, server extracts %d", m.Config.AttrDim, s.cfgTemplate.AttrDim)
	}
	return nil
}

// installModelLocked registers m as a new version under the given source
// tag ("train", "continual", "load" or "checkpoint") and makes it the
// serving model; callers hold s.mu.
func (s *Server) installModelLocked(m *core.Weights, source string) {
	s.promoteLocked(s.registerModelLocked(m, source).version, "install")
}

// Handler returns the HTTP routing for the service. Every route is
// wrapped in the metrics middleware, labeled by its path pattern (bounded
// cardinality), including /metrics itself.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, endpoint string, h http.HandlerFunc) {
		mux.Handle(pattern, s.httpMetrics.WrapFunc(endpoint, h))
	}
	handle("GET /healthz", "/healthz", s.handleHealthz)
	handle("GET /metrics", "/metrics", s.registry.Handler().ServeHTTP)
	handle("GET /v1/model", "/v1/model", s.handleModel)
	handle("GET /v1/stats", "/v1/stats", s.handleStats)
	handle("POST /v1/samples", "/v1/samples", s.handleAddSample)
	handle("POST /v1/train", "/v1/train", s.handleTrain)
	handle("GET /v1/train/{id}", "/v1/train/{id}", s.handleTrainStatus)
	handle("DELETE /v1/train/{id}", "/v1/train/{id}", s.handleTrainCancel)
	handle("POST /v1/predict", "/v1/predict", s.handlePredict)
	handle("GET /v1/models", "/v1/models", s.handleModels)
	handle("POST /v1/models", "/v1/models", s.handleModelsPost)
	return mux
}

// sampleBody is the wire form of an uploaded sample: either disassembly
// text or a pre-built ACFG.
type sampleBody struct {
	Family string     `json:"family,omitempty"`
	ASM    string     `json:"asm,omitempty"`
	ACFG   *acfg.ACFG `json:"acfg,omitempty"`
	Name   string     `json:"name,omitempty"`
}

// trainBody tunes a training request. Mode selects full retraining
// (default) or continual fine-tuning on samples since the last job; for
// continual jobs ValFraction sets the eval gate's holdout share.
type trainBody struct {
	Mode        string  `json:"mode,omitempty"`
	Epochs      int     `json:"epochs,omitempty"`
	ValFraction float64 `json:"valFraction,omitempty"`
}

// prediction is one ranked family in a predict response.
type prediction struct {
	Family      string  `json:"family"`
	Probability float64 `json:"probability"`
}

type predictResponse struct {
	Family       string       `json:"family"`
	Blocks       int          `json:"blocks"`
	ModelVersion string       `json:"modelVersion,omitempty"`
	Predictions  []prediction `json:"predictions"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// healthzResponse is the /healthz payload. ModelVersion is empty until a
// model is serving; the gateway uses it to learn the fleet's active
// version, and operators get a one-call liveness + readiness view.
type healthzResponse struct {
	Status        string `json:"status"`
	ModelVersion  string `json:"model_version,omitempty"`
	CorpusSamples int    `json:"corpus_samples"`
	// ResidentSamples counts corpus samples held decoded in memory: the
	// whole corpus without a state dir, none with one — there every sample
	// is read from its segment file when a training job needs it.
	ResidentSamples int `json:"resident_samples"`
	// Storage breakdown, present only when a state dir is attached: how
	// much of the corpus lives in sealed segments vs the open one (the WAL).
	CorpusSegments    int `json:"corpus_segments,omitempty"`
	SegmentSamples    int `json:"segment_samples,omitempty"`
	WALSamples        int `json:"wal_samples,omitempty"`
	CorpusCompactions int `json:"corpus_compactions,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	resp := healthzResponse{
		Status:          "ok",
		ModelVersion:    s.activeVersion,
		CorpusSamples:   s.corpus.Len(),
		ResidentSamples: s.corpus.Resident(),
	}
	store := s.store
	s.mu.Unlock()
	if store != nil {
		stats := store.Stats()
		resp.CorpusSegments = stats.Segments
		resp.SegmentSamples = stats.SegmentRecords
		resp.WALSamples = stats.WALRecords
		resp.CorpusCompactions = stats.Compactions
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := map[string]any{
		"families": s.families,
		"trained":  s.model != nil,
		"training": s.curJob != nil,
	}
	if s.curJob != nil {
		resp["trainingJob"] = s.curJob.id
	}
	if s.model != nil {
		resp["parameters"] = s.model.NumParameters()
		resp["architecture"] = s.model.String()
		resp["trainedAt"] = s.trainedAt.UTC().Format(time.RFC3339)
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	counts := s.corpus.CountByClass()
	perFamily := make(map[string]int, len(s.families))
	for i, f := range s.families {
		perFamily[f] = counts[i]
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"samples":  s.corpus.Len(),
		"families": perFamily,
	})
}

func (s *Server) handleAddSample(w http.ResponseWriter, r *http.Request) {
	var body sampleBody
	if err := decodeBody(w, r, &body); err != nil {
		WriteError(w, decodeStatus(err), err)
		return
	}
	if _, ok := s.labelOf[body.Family]; !ok {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("unknown family %q", body.Family))
		return
	}
	a, err := s.extract(&body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	hash := a.ContentHash()
	s.mu.Lock()
	defer s.mu.Unlock()
	name := body.Name
	if name == "" {
		name = fmt.Sprintf("%s-%06d", body.Family, s.corpus.Len())
	}
	// Ingest dedup: byte-identical ACFG content is acknowledged but stored
	// once — re-uploads after client retries or corpus re-imports must not
	// inflate the training set.
	if s.corpus.contains(hash) {
		s.corpusMetrics.Deduplicated()
		WriteJSON(w, http.StatusCreated, map[string]any{
			"name":         name,
			"samples":      s.corpus.Len(),
			"deduplicated": true,
		})
		return
	}
	// Durability first: a sample is acknowledged only once its frame is
	// fsynced, so an acknowledged upload survives a crash.
	rec := &corpus.Record{Family: body.Family, Name: name, Hash: hash, ACFG: a}
	if err := s.commitLocked([]*corpus.Record{rec}); err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	s.corpusSize.With(body.Family).Inc() // replay and import Set the absolute count
	s.publishCorpusGaugesLocked()
	WriteJSON(w, http.StatusCreated, map[string]any{
		"name":    name,
		"samples": s.corpus.Len(),
	})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var body sampleBody
	if err := decodeBody(w, r, &body); err != nil {
		WriteError(w, decodeStatus(err), err)
		return
	}
	a, err := s.extract(&body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}

	// Lock-free snapshot: the request is pinned to one model version for
	// its whole life, however many promotes or rollbacks land meanwhile.
	sv := s.serving.Load()
	if sv == nil {
		WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("no model trained yet"))
		return
	}
	probs, err := sv.batch.predict(r.Context(), a)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The client went away while the request was queued; 499-style
			// semantics, but stick to a standard code.
			status = http.StatusServiceUnavailable
		}
		WriteError(w, status, err)
		return
	}
	preds := make([]prediction, len(probs))
	for i, p := range probs {
		preds[i] = prediction{Family: s.families[i], Probability: p}
	}
	sort.SliceStable(preds, func(i, j int) bool { return preds[i].Probability > preds[j].Probability })
	s.predictions.With(preds[0].Family).Inc()
	WriteJSON(w, http.StatusOK, predictResponse{
		Family:       preds[0].Family,
		Blocks:       a.NumVertices(),
		ModelVersion: sv.version,
		Predictions:  preds,
	})
}

// maxGraphVertices bounds the graphs /v1/predict and /v1/samples admit. The
// byte limit alone does not: a 16 MiB body can describe several hundred
// thousand basic blocks, and every replica that runs a graph keeps its
// scratch slab — 4.2 KB per vertex to predict, 9.1 KB to train — until a
// larger one replaces it. A serving version's batcher owns one replica per
// worker, as a training job does, and a batch is spread one sample per
// replica, so a batch of two already reaches two of them: each of a
// version's workers can hold such a slab. 4096 is ten times the largest
// listing malgen, the tests or the benchmark produce, and keeps an admitted
// graph's slab (17 MB serving, 37 MB training) under tensor.Workspace's
// retention bound, so the limit is what caps a replica's resident scratch,
// and workers × 17 MB a served version's. It is a constant, not a flag: nothing a deployment
// knows should change what a replica can be made to hold.
const maxGraphVertices = 4096

// maxAttrValue bounds the attributes of an uploaded acfg body. Table I
// attributes are instruction and degree counts, so a negative one is
// malformed, and one above 2^53 — the last float64 below which every
// integer is exact — is not a count anything could have taken. Left in,
// such values overflow the forward pass into NaN probabilities and, through
// /v1/samples, would sit in the corpus poisoning every later scaler fit. A
// constant for the same reason maxGraphVertices is one.
const maxAttrValue = 1 << 53

// extract converts an uploaded body into an ACFG, running the disassembly
// pipeline when asm text was supplied, and rejects graphs above
// maxGraphVertices whichever way they arrived. Only request bodies pass
// through here: segment replay reloads what was once admitted.
func (s *Server) extract(body *sampleBody) (*acfg.ACFG, error) {
	var a *acfg.ACFG
	switch {
	case body.ACFG != nil && body.ASM != "":
		return nil, fmt.Errorf("supply either asm or acfg, not both")
	case body.ACFG != nil:
		if body.ACFG.Attrs.Cols != s.cfgTemplate.AttrDim {
			return nil, fmt.Errorf("acfg has %d attribute columns, want %d",
				body.ACFG.Attrs.Cols, s.cfgTemplate.AttrDim)
		}
		for i, v := range body.ACFG.Attrs.Data {
			if v < 0 || v > maxAttrValue {
				cols := body.ACFG.Attrs.Cols
				return nil, fmt.Errorf("acfg attribute [%d][%d] is %g, want a count in [0, 2^53]", i/cols, i%cols, v)
			}
		}
		a = body.ACFG
	case strings.TrimSpace(body.ASM) != "":
		var err error
		if a, err = acfg.FromASM(body.ASM); err != nil {
			return nil, fmt.Errorf("extract acfg: %w", err)
		}
	default:
		return nil, fmt.Errorf("missing asm or acfg payload")
	}
	if n := a.NumVertices(); n > maxGraphVertices {
		return nil, fmt.Errorf("graph has %d vertices, limit is %d", n, maxGraphVertices)
	}
	return a, nil
}

// errEmptyBody marks a request whose body held no JSON value at all (as
// opposed to a malformed one). Handlers that accept an absent body — like
// /v1/train, where it means "all defaults" — test for it with errors.Is;
// note ContentLength is useless for that distinction, since chunked
// requests carry -1 whether or not bytes follow.
var errEmptyBody = errors.New("empty request body")

// maxBodyBytes bounds every request body; oversized bodies surface as 413.
const maxBodyBytes = 16 << 20

// decodeBody decodes a JSON request body into v. It passes the real
// ResponseWriter to MaxBytesReader so the connection is closed after an
// overrun, preventing a client from streaming the rest of an oversized
// body into a dead handler.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			// Decode returns bare io.EOF only when no bytes preceded it:
			// the body was empty. Truncated JSON is io.ErrUnexpectedEOF.
			return errEmptyBody
		}
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

// decodeStatus maps a decodeBody error to its HTTP status: 413 when the
// body blew the size cap, else 400.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// WriteJSON answers status with v as a JSON body ending in a newline. It
// encodes v before it commits the status line, so a value JSON cannot carry
// (a NaN probability) is answered 500 with an error body rather than the
// handler's success code over zero bytes. The gateway answers through it
// too.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		// A struct of one string always encodes.
		b, _ = json.Marshal(errorResponse{Error: "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(b, '\n'))
}

// WriteError answers status with the body {"error": err.Error()}.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, errorResponse{Error: err.Error()})
}
