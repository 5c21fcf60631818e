package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/acfg"
)

// Client is a typed HTTP client for the MAGIC service, used by
// cmd/magic-server's client mode, cmd/magic-predict's -server mode, and
// integration tests. Every method has a context-aware form; the plain
// forms delegate with context.Background(). Requests that die on a
// connection error or a 503 are retried with exponential backoff, bounded
// by MaxRetries.
type Client struct {
	BaseURL string
	HTTP    *http.Client

	// MaxRetries caps how many times a request is retried after a
	// connection error or a 503 response. 0 selects DefaultMaxRetries;
	// negative disables retries.
	MaxRetries int
	// RetryBackoff is the first retry's delay; it doubles per attempt.
	// 0 selects DefaultRetryBackoff.
	RetryBackoff time.Duration
}

// DefaultTimeout bounds every individual client request. Training no
// longer runs inside one request (POST /v1/train answers immediately with
// a job ID), so this only needs to cover uploads and predictions; it is
// still generous for large disassembly payloads on slow machines.
const DefaultTimeout = 5 * time.Minute

// Retry defaults: 3 retries at 100ms, 200ms, 400ms keeps transient
// connection drops and 503s invisible to callers without stalling hard
// failures for more than ~1s.
const (
	DefaultMaxRetries   = 3
	DefaultRetryBackoff = 100 * time.Millisecond
)

// NewClient builds a client for the given base URL (e.g.
// "http://localhost:8080") with a dedicated *http.Client bounded by
// DefaultTimeout — never http.DefaultClient, which has no timeout at all.
func NewClient(baseURL string) *Client {
	return NewClientWithHTTP(baseURL, &http.Client{Timeout: DefaultTimeout})
}

// NewClientWithHTTP builds a client that issues requests through hc,
// the escape hatch for custom timeouts, transports, or test doubles.
func NewClientWithHTTP(baseURL string, hc *http.Client) *Client {
	return &Client{BaseURL: baseURL, HTTP: hc}
}

// Health checks the liveness endpoint.
func (c *Client) Health() error { return c.HealthContext(context.Background()) }

// HealthContext is Health bounded by ctx.
func (c *Client) HealthContext(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodGet, "/healthz", nil, http.StatusOK)
	return err
}

// HealthStatus is the decoded /healthz payload. The corpus tier fields are
// present only when the server has a durable state directory attached.
type HealthStatus struct {
	Status        string `json:"status"`
	ModelVersion  string `json:"model_version,omitempty"`
	CorpusSamples int    `json:"corpus_samples"`
	// ResidentSamples counts the corpus samples held decoded in memory.
	ResidentSamples int `json:"resident_samples"`
	// CorpusSegments/SegmentSamples describe the compacted binary tier;
	// WALSamples counts records still in the write-ahead log.
	CorpusSegments    int `json:"corpus_segments,omitempty"`
	SegmentSamples    int `json:"segment_samples,omitempty"`
	WALSamples        int `json:"wal_samples,omitempty"`
	CorpusCompactions int `json:"corpus_compactions,omitempty"`
}

// HealthInfo fetches the full health payload: liveness plus the serving
// model version and corpus size.
func (c *Client) HealthInfo() (*HealthStatus, error) {
	return c.HealthInfoContext(context.Background())
}

// HealthInfoContext is HealthInfo bounded by ctx.
func (c *Client) HealthInfoContext(ctx context.Context) (*HealthStatus, error) {
	raw, err := c.do(ctx, http.MethodGet, "/healthz", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var hs HealthStatus
	if err := json.Unmarshal(raw, &hs); err != nil {
		return nil, fmt.Errorf("service client: decode health: %w", err)
	}
	return &hs, nil
}

// AddSampleASM uploads one labeled disassembly listing.
func (c *Client) AddSampleASM(family, name, asmText string) error {
	return c.AddSampleASMContext(context.Background(), family, name, asmText)
}

// AddSampleASMContext is AddSampleASM bounded by ctx.
func (c *Client) AddSampleASMContext(ctx context.Context, family, name, asmText string) error {
	_, err := c.do(ctx, http.MethodPost, "/v1/samples",
		sampleBody{Family: family, Name: name, ASM: asmText}, http.StatusCreated)
	return err
}

// AddSampleACFG uploads one labeled pre-built ACFG.
func (c *Client) AddSampleACFG(family, name string, a *acfg.ACFG) error {
	return c.AddSampleACFGContext(context.Background(), family, name, a)
}

// AddSampleACFGContext is AddSampleACFG bounded by ctx.
func (c *Client) AddSampleACFGContext(ctx context.Context, family, name string, a *acfg.ACFG) error {
	_, err := c.do(ctx, http.MethodPost, "/v1/samples",
		sampleBody{Family: family, Name: name, ACFG: a}, http.StatusCreated)
	return err
}

// TrainResult summarizes a completed server-side training run. Mode and
// Promoted describe what the job did with the model: a full run always
// installs it, while a continual run installs only when HoldoutAcc did not
// regress below BaselineAcc (the serving model's accuracy on the same
// holdout before fine-tuning).
type TrainResult struct {
	Mode        string  `json:"mode,omitempty"`
	Promoted    bool    `json:"promoted"`
	Epochs      int     `json:"epochs"`
	BestEpoch   int     `json:"bestEpoch"`
	BestLoss    float64 `json:"bestLoss"`
	Samples     int     `json:"samples"`
	NewSamples  int     `json:"newSamples,omitempty"`
	Parameters  int     `json:"parameters"`
	HoldoutAcc  float64 `json:"holdoutAcc,omitempty"`
	BaselineAcc float64 `json:"baselineAcc,omitempty"`
}

// trainPollInterval paces WaitTrain's status polling.
const trainPollInterval = 25 * time.Millisecond

// StartTrain submits an asynchronous training job and returns its initial
// status (202) without waiting for the run.
func (c *Client) StartTrain(ctx context.Context, epochs int, valFraction float64) (*TrainJobStatus, error) {
	return c.startJob(ctx, trainBody{Epochs: epochs, ValFraction: valFraction})
}

// StartContinual submits an asynchronous continual fine-tuning job: the
// serving model is tuned on samples ingested since the last completed job
// and promoted only if holdout accuracy does not regress. valFraction sets
// the holdout share (0 uses the server default).
func (c *Client) StartContinual(ctx context.Context, epochs int, valFraction float64) (*TrainJobStatus, error) {
	return c.startJob(ctx, trainBody{Mode: TrainModeContinual, Epochs: epochs, ValFraction: valFraction})
}

func (c *Client) startJob(ctx context.Context, body trainBody) (*TrainJobStatus, error) {
	raw, err := c.do(ctx, http.MethodPost, "/v1/train", body, http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	return decodeJobStatus(raw)
}

// TrainStatus fetches one job's current status.
func (c *Client) TrainStatus(ctx context.Context, id string) (*TrainJobStatus, error) {
	raw, err := c.do(ctx, http.MethodGet, "/v1/train/"+url.PathEscape(id), nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return decodeJobStatus(raw)
}

// CancelTrain requests cooperative cancellation of a job. It returns the
// job's status at the time of the request; cancellation completes
// asynchronously (poll TrainStatus or WaitTrain for the terminal state).
func (c *Client) CancelTrain(ctx context.Context, id string) (*TrainJobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		c.BaseURL+"/v1/train/"+url.PathEscape(id), nil)
	if err != nil {
		return nil, fmt.Errorf("service client: cancel train: %w", err)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, fmt.Errorf("service client: cancel train: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("service client: cancel train: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return nil, statusError("/v1/train/"+id, buf.Bytes(), resp.StatusCode)
	}
	return decodeJobStatus(buf.Bytes())
}

// WaitTrain polls a job until it reaches a terminal state or ctx expires.
func (c *Client) WaitTrain(ctx context.Context, id string) (*TrainJobStatus, error) {
	for {
		st, err := c.TrainStatus(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(trainPollInterval):
		}
	}
}

// Train triggers full retraining on the accumulated corpus and blocks
// until the run finishes; it is TrainAndWait with TrainModeFull.
func (c *Client) Train(epochs int, valFraction float64) (*TrainResult, error) {
	return c.TrainAndWait(context.Background(), TrainModeFull, epochs, valFraction)
}

// TrainAndWait submits a training job of the given mode (TrainModeFull or
// TrainModeContinual) and polls it to a terminal state, so it works for
// runs of any length without an HTTP request outliving the client timeout.
// It returns the succeeded job's result — for a continual job, Promoted
// reports the eval gate's verdict — and an error for any other outcome.
func (c *Client) TrainAndWait(ctx context.Context, mode string, epochs int, valFraction float64) (*TrainResult, error) {
	job, err := c.startJob(ctx, trainBody{Mode: mode, Epochs: epochs, ValFraction: valFraction})
	if err != nil {
		return nil, err
	}
	st, err := c.WaitTrain(ctx, job.Job)
	if err != nil {
		return nil, err
	}
	if err := st.err(); err != nil {
		return nil, fmt.Errorf("service client: %w", err)
	}
	if st.Result == nil {
		return nil, fmt.Errorf("service client: job %s succeeded without a result", st.Job)
	}
	return st.Result, nil
}

func decodeJobStatus(raw []byte) (*TrainJobStatus, error) {
	var st TrainJobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("service client: decode train job status: %w", err)
	}
	return &st, nil
}

// Prediction is one ranked family.
type Prediction = prediction

// PredictResult is a classification response.
type PredictResult struct {
	Family       string       `json:"family"`
	Blocks       int          `json:"blocks"`
	ModelVersion string       `json:"modelVersion,omitempty"`
	Predictions  []Prediction `json:"predictions"`
}

// PredictASM classifies a disassembly listing.
func (c *Client) PredictASM(asmText string) (*PredictResult, error) {
	return c.PredictASMContext(context.Background(), asmText)
}

// PredictASMContext is PredictASM bounded by ctx.
func (c *Client) PredictASMContext(ctx context.Context, asmText string) (*PredictResult, error) {
	return c.predict(ctx, sampleBody{ASM: asmText})
}

// PredictACFG classifies a pre-built ACFG.
func (c *Client) PredictACFG(a *acfg.ACFG) (*PredictResult, error) {
	return c.PredictACFGContext(context.Background(), a)
}

// PredictACFGContext is PredictACFG bounded by ctx.
func (c *Client) PredictACFGContext(ctx context.Context, a *acfg.ACFG) (*PredictResult, error) {
	return c.predict(ctx, sampleBody{ACFG: a})
}

func (c *Client) predict(ctx context.Context, body sampleBody) (*PredictResult, error) {
	raw, err := c.do(ctx, http.MethodPost, "/v1/predict", body, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var res PredictResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("service client: decode prediction: %w", err)
	}
	return &res, nil
}

// ListModels fetches the retained model versions, the active one and the
// rollback target.
func (c *Client) ListModels(ctx context.Context) (*ModelsInfo, error) {
	raw, err := c.do(ctx, http.MethodGet, "/v1/models", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return decodeModelsInfo(raw)
}

// PromoteModel switches serving traffic to a retained version (blue/green)
// and returns the resulting registry state.
func (c *Client) PromoteModel(ctx context.Context, version string) (*ModelsInfo, error) {
	raw, err := c.do(ctx, http.MethodPost, "/v1/models",
		modelsBody{Action: "promote", Version: version}, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return decodeModelsInfo(raw)
}

// RollbackModel instantly restores the previously active model version.
func (c *Client) RollbackModel(ctx context.Context) (*ModelsInfo, error) {
	raw, err := c.do(ctx, http.MethodPost, "/v1/models",
		modelsBody{Action: "rollback"}, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return decodeModelsInfo(raw)
}

func decodeModelsInfo(raw []byte) (*ModelsInfo, error) {
	var info ModelsInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		return nil, fmt.Errorf("service client: decode models: %w", err)
	}
	return &info, nil
}

// Forward issues a pre-encoded JSON payload to path, expecting wantStatus,
// under the client's usual retry policy. magic-gateway uses it to proxy
// request bodies verbatim without a decode/re-encode round trip.
func (c *Client) Forward(ctx context.Context, method, path string, payload []byte, wantStatus int) ([]byte, error) {
	return c.doRaw(ctx, method, path, payload, wantStatus)
}

// Stats fetches the per-family corpus counts.
func (c *Client) Stats() (map[string]int, error) {
	return c.StatsContext(context.Background())
}

// StatsContext is Stats bounded by ctx.
func (c *Client) StatsContext(ctx context.Context) (map[string]int, error) {
	raw, err := c.do(ctx, http.MethodGet, "/v1/stats", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var body struct {
		Families map[string]int `json:"families"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		return nil, fmt.Errorf("service client: decode stats: %w", err)
	}
	return body.Families, nil
}

// retryBudget resolves the configured retry knobs.
func (c *Client) retryBudget() (retries int, backoff time.Duration) {
	retries = c.MaxRetries
	if retries == 0 {
		retries = DefaultMaxRetries
	}
	if retries < 0 {
		retries = 0
	}
	backoff = c.RetryBackoff
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	return retries, backoff
}

// do issues one JSON request (body nil for bodyless methods) and returns
// the response bytes when the status matches wantStatus.
func (c *Client) do(ctx context.Context, method, path string, body any, wantStatus int) ([]byte, error) {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return nil, fmt.Errorf("service client: encode: %w", err)
		}
	}
	return c.doRaw(ctx, method, path, payload, wantStatus)
}

// doRaw is do with a pre-encoded payload. Connection errors and 503
// responses are retried with exponential backoff up to the client's retry
// budget; any other status short-circuits with the server's error message
// as an *APIError. Context cancellation is never retried: a cancelled
// context aborts immediately, even mid-backoff.
func (c *Client) doRaw(ctx context.Context, method, path string, payload []byte, wantStatus int) ([]byte, error) {
	retries, backoff := c.retryBudget()
	var lastErr error
	for attempt := 0; ; attempt++ {
		raw, status, err := c.roundTrip(ctx, method, path, payload)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return nil, fmt.Errorf("service client: %s %s: %w", method, path, err)
			}
			lastErr = fmt.Errorf("service client: %s %s: %w", method, path, err)
		case status == wantStatus:
			return raw, nil
		case status == http.StatusServiceUnavailable && wantStatus != http.StatusServiceUnavailable:
			lastErr = statusError(path, raw, status)
		default:
			return nil, statusError(path, raw, status)
		}
		if attempt >= retries {
			return nil, lastErr
		}
		if err := sleepBackoff(ctx, backoff<<attempt); err != nil {
			return nil, fmt.Errorf("service client: %s %s: %w", method, path, err)
		}
	}
}

// sleepBackoff blocks for d or until ctx is cancelled, whichever comes
// first, returning the context's error in the latter case. An
// already-cancelled context returns immediately without arming a timer,
// and the timer is always stopped — a retry loop under a cancelled
// context neither sleeps out its backoff nor leaks timers.
func sleepBackoff(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// roundTrip performs one HTTP exchange and reads the full response body.
func (c *Client) roundTrip(ctx context.Context, method, path string, payload []byte) ([]byte, int, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return nil, 0, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), resp.StatusCode, nil
}

// APIError is a response whose status did not match the caller's
// expectation. Callers that care which status came back — like the
// gateway, which relays a backend's 4xx to its own client instead of
// failing over — unwrap it with errors.As.
type APIError struct {
	Path    string
	Status  int
	Message string // the server's JSON error message, when one was sent
	Body    []byte // the raw response body
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("service client: %s: %s (status %d)", e.Path, e.Message, e.Status)
	}
	return fmt.Sprintf("service client: %s: status %d", e.Path, e.Status)
}

// statusError shapes an unexpected-status error, surfacing the server's
// JSON error message when one was sent.
func statusError(path string, raw []byte, status int) error {
	e := &APIError{Path: path, Status: status, Body: raw}
	var body errorResponse
	if json.Unmarshal(raw, &body) == nil {
		e.Message = body.Error
	}
	return e
}
