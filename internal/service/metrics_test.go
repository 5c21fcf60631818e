package service

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// scrape fetches /metrics and parses every sample line into a map keyed by
// the full series string ("name{labels}"), validating the text format's
// line structure along the way.
func scrape(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, string(body))
}

// parseExposition parses Prometheus text into a map keyed by the full
// series string, failing the test on a malformed line.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// TestMetricsEndpointRoundTrip is the acceptance check: after a real
// upload→train→predict round trip, /metrics serves valid Prometheus text
// including request counters, latency histograms, and training gauges.
func TestMetricsEndpointRoundTrip(t *testing.T) {
	_, ts, client := newTestServer(t, []string{"chainy", "loopy"})

	for i := 0; i < 4; i++ {
		if err := client.AddSampleASM("chainy", "", variant(chainProgram, i)); err != nil {
			t.Fatal(err)
		}
		if err := client.AddSampleASM("loopy", "", variant(loopProgram, i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := client.Train(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.PredictASM(loopProgram); err != nil {
		t.Fatal(err)
	}

	samples := scrape(t, ts.URL)

	// Request counters, labeled by endpoint/method/code.
	checks := map[string]float64{
		`magic_http_requests_total{endpoint="/v1/samples",method="POST",code="201"}`: 8,
		`magic_http_requests_total{endpoint="/v1/train",method="POST",code="202"}`:   1,
		`magic_http_requests_total{endpoint="/v1/predict",method="POST",code="200"}`: 1,
		// Latency histograms: one observation per request.
		`magic_http_request_duration_seconds_count{endpoint="/v1/predict"}`: 1,
		`magic_http_request_duration_seconds_count{endpoint="/v1/train"}`:   1,
		// Training telemetry populated by the run.
		`magic_train_epochs_total`:                 float64(res.Epochs),
		`magic_train_epoch_duration_seconds_count`: float64(res.Epochs),
		`magic_train_samples`:                      8,
		`magic_train_best_epoch`:                   float64(res.BestEpoch),
		`magic_model_parameters`:                   float64(res.Parameters),
		// Async-job telemetry: one submitted job, finished ok.
		`magic_train_job_submitted_total`:               1,
		`magic_train_job_active`:                        0,
		`magic_train_job_completed_total{outcome="ok"}`: 1,
		`magic_train_job_duration_seconds_count`:        1,
		// Corpus and prediction bookkeeping.
		`magic_corpus_samples{family="chainy"}`: 4,
		`magic_corpus_samples{family="loopy"}`:  4,
	}
	for series, want := range checks {
		got, ok := samples[series]
		if !ok {
			t.Errorf("missing series %s", series)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}

	// Gauges whose exact value depends on the run: present and sane.
	for _, series := range []string{
		`magic_train_loss{set="train"}`,
		`magic_train_accuracy{set="train"}`,
		`magic_train_learning_rate`,
	} {
		if _, ok := samples[series]; !ok {
			t.Errorf("missing series %s", series)
		}
	}
	if samples[`magic_train_learning_rate`] <= 0 {
		t.Errorf("learning rate gauge = %v, want > 0", samples[`magic_train_learning_rate`])
	}

	// Histogram buckets must be cumulative and end at the count.
	sawBucket := false
	for series := range samples {
		if strings.HasPrefix(series, `magic_http_request_duration_seconds_bucket{endpoint="/v1/predict"`) {
			sawBucket = true
		}
	}
	if !sawBucket {
		t.Error("no latency histogram buckets for /v1/predict")
	}
	inf := samples[`magic_http_request_duration_seconds_bucket{endpoint="/v1/predict",le="+Inf"}`]
	if inf != 1 {
		t.Errorf("+Inf bucket = %v, want 1", inf)
	}

	// Scraping /metrics is itself instrumented: a second scrape sees the
	// first.
	again := scrape(t, ts.URL)
	if got := again[`magic_http_requests_total{endpoint="/metrics",method="GET",code="200"}`]; got != 1 {
		t.Errorf("/metrics self-instrumentation = %v, want 1", got)
	}
}

// TestPredictDuringTrain is the concurrency regression test: predictions
// against the previous model must keep serving while /v1/train holds the
// write path, and the metrics must come out consistent. Run under -race in
// CI.
func TestPredictDuringTrain(t *testing.T) {
	srv, ts, client := newTestServer(t, []string{"chainy", "loopy"})

	for i := 0; i < 8; i++ {
		if err := client.AddSampleASM("chainy", "", variant(chainProgram, i)); err != nil {
			t.Fatal(err)
		}
		if err := client.AddSampleASM("loopy", "", variant(loopProgram, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Install an initial model so predictions serve while training runs.
	if _, err := client.Train(2, 0); err != nil {
		t.Fatal(err)
	}

	trainDone := make(chan error, 1)
	go func() {
		_, err := client.Train(40, 0)
		trainDone <- err
	}()

	// Wait until the server reports the run in flight (or it finished
	// already on a very fast machine — then the predictions below still
	// exercise the same code path, just without overlap).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if trainingActive(srv) {
			break
		}
		select {
		case err := <-trainDone:
			if err != nil {
				t.Fatal(err)
			}
			trainDone <- nil
		default:
		}
		time.Sleep(time.Millisecond)
	}

	const predictors, perP = 4, 5
	var wg sync.WaitGroup
	errs := make([]error, predictors*perP)
	for p := 0; p < predictors; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				_, errs[p*perP+i] = client.PredictASM(loopProgram)
			}
		}(p)
	}
	wg.Wait()
	if err := <-trainDone; err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("prediction %d failed during training: %v", i, err)
		}
	}

	// Metrics consistency after the dust settles.
	samples := scrape(t, ts.URL)
	if got := samples[`magic_http_requests_total{endpoint="/v1/predict",method="POST",code="200"}`]; got != predictors*perP {
		t.Errorf("predict count = %v, want %d", got, predictors*perP)
	}
	if got := samples[`magic_http_request_duration_seconds_count{endpoint="/v1/predict"}`]; got != predictors*perP {
		t.Errorf("predict latency observations = %v, want %d", got, predictors*perP)
	}
	if got := samples[`magic_http_requests_in_flight{endpoint="/v1/predict"}`]; got != 0 {
		t.Errorf("in-flight = %v, want 0", got)
	}
	if got := samples[`magic_train_job_completed_total{outcome="ok"}`]; got != 2 {
		t.Errorf("train runs = %v, want 2", got)
	}
	if got := samples[`magic_train_job_active`]; got != 0 {
		t.Errorf("train in progress = %v, want 0", got)
	}
}

// TestClientHasTimeout guards the NewClient fix: the default client must
// not be http.DefaultClient and must carry a real timeout.
func TestClientHasTimeout(t *testing.T) {
	c := NewClient("http://example.invalid")
	if c.HTTP == http.DefaultClient {
		t.Fatal("NewClient uses http.DefaultClient")
	}
	if c.HTTP.Timeout <= 0 {
		t.Fatal("NewClient's http.Client has no timeout")
	}
	custom := &http.Client{Timeout: time.Second}
	if got := NewClientWithHTTP("http://example.invalid", custom); got.HTTP != custom {
		t.Fatal("NewClientWithHTTP does not use the supplied client")
	}
}
