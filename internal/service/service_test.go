package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/malgen"
	"repro/internal/obs"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig(2, acfg.NumAttributes)
	cfg.ConvSizes = []int{8, 8}
	cfg.HiddenUnits = 16
	cfg.Conv2DChannels = 4
	cfg.Epochs = 6
	return cfg
}

func newTestServer(t *testing.T, families []string) (*Server, *httptest.Server, *Client) {
	t.Helper()
	// A per-test registry keeps metric assertions independent of other
	// tests sharing obs.Default in the same process.
	srv, err := NewWithRegistry(families, testConfig(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, NewClient(ts.URL)
}

const chainProgram = `
00401000 mov eax, 1
00401005 mov ebx, 2
0040100a mov ecx, 3
0040100f ret
`

const loopProgram = `
00401000 mov ecx, 9
00401005 add eax, ecx
00401007 xor eax, 3
0040100a dec ecx
0040100c cmp ecx, 0
0040100f jnz 0x401005
00401011 ret
`

func TestNewValidation(t *testing.T) {
	if _, err := New([]string{"only"}, testConfig()); err == nil {
		t.Fatal("want error for single family")
	}
	if _, err := New([]string{"a", "a"}, testConfig()); err == nil {
		t.Fatal("want error for duplicate family")
	}
	if _, err := New([]string{"a", ""}, testConfig()); err == nil {
		t.Fatal("want error for empty family")
	}
	bad := testConfig()
	bad.BatchSize = 0
	if _, err := New([]string{"a", "b"}, bad); err == nil {
		t.Fatal("want error for invalid config")
	}
}

func TestHealthz(t *testing.T) {
	_, _, client := newTestServer(t, []string{"clean", "dirty"})
	if err := client.Health(); err != nil {
		t.Fatal(err)
	}
}

func TestPredictWithoutModel(t *testing.T) {
	_, ts, client := newTestServer(t, []string{"clean", "dirty"})
	_ = ts
	if _, err := client.PredictASM(chainProgram); err == nil {
		t.Fatal("want 503 before training")
	}
}

func TestUploadTrainPredictFlow(t *testing.T) {
	_, _, client := newTestServer(t, []string{"chainy", "loopy"})

	// Upload a few variants of each family (distinct instruction mixes —
	// ingest dedup would collapse byte-identical ACFG content).
	for i := 0; i < 8; i++ {
		if err := client.AddSampleASM("chainy", "", variant(chainProgram, i)); err != nil {
			t.Fatal(err)
		}
		if err := client.AddSampleASM("loopy", "", variant(loopProgram, i)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["chainy"] != 8 || stats["loopy"] != 8 {
		t.Fatalf("stats = %v", stats)
	}

	res, err := client.Train(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 16 || res.Parameters == 0 {
		t.Fatalf("train result = %+v", res)
	}

	pred, err := client.PredictASM(loopProgram)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Family != "loopy" {
		t.Fatalf("predicted %q, want loopy (%+v)", pred.Family, pred)
	}
	if len(pred.Predictions) != 2 {
		t.Fatalf("predictions = %+v", pred.Predictions)
	}
	if pred.Predictions[0].Probability < pred.Predictions[1].Probability {
		t.Fatal("predictions not sorted")
	}
	// The whole ranked list is a distribution.
	sum := 0.0
	for _, p := range pred.Predictions {
		sum += p.Probability
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probability mass %v", sum)
	}
}

func TestAddSampleValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, []string{"clean", "dirty"})

	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"unknown family", `{"family":"ghost","asm":"00401000 ret"}`, http.StatusBadRequest},
		{"missing payload", `{"family":"clean"}`, http.StatusBadRequest},
		{"bad asm", `{"family":"clean","asm":"garbage"}`, http.StatusBadRequest},
		{"bad json", `{`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/samples", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestHostileACFGVertexCount posts ACFG documents whose claimed vertex
// count is negative or absurdly large: both ingest endpoints must answer
// 400 (not panic in the decoder, not allocate by the claimed count) and the
// server must keep serving afterwards.
func TestHostileACFGVertexCount(t *testing.T) {
	_, ts, _ := newTestServer(t, []string{"clean", "dirty"})

	for _, n := range []string{"-1", "4000000000"} {
		doc := `{"family":"clean","acfg":{"n":` + n + `,"edges":[],"attrs":[]}}`
		for _, path := range []string{"/v1/predict", "/v1/samples"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(doc))
			if err != nil {
				t.Fatalf("POST %s n=%s: %v", path, n, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s n=%s: status %d, want 400", path, n, resp.StatusCode)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after hostile input: status %d", resp.StatusCode)
	}
}

// TestHostileACFGAttributes: Table I attributes are counts. Both routes
// refuse an acfg body holding a negative attribute or one above 2^53 with a
// 400 naming the first such cell, whether or not the serving model
// standardises its input, and admit 0 and 2^53 themselves. A refused upload
// leaves the corpus and its segments as they were, and no answer is a status
// line over an empty or non-JSON body (columns of 1e308 used to overflow an unscaled
// forward pass into NaN probabilities, which /v1/predict answered with 200
// and zero bytes, and /v1/samples fsynced them into the corpus).
func TestHostileACFGAttributes(t *testing.T) {
	models := []struct {
		name    string
		install func(t *testing.T, srv *Server, client *Client)
	}{
		{"fresh DefaultConfig", func(t *testing.T, srv *Server, _ *Client) {
			m, err := core.NewModel(core.DefaultConfig(2, acfg.NumAttributes), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.LoadModel(m); err != nil {
				t.Fatal(err)
			}
		}},
		{"trained with scaler", func(t *testing.T, _ *Server, client *Client) {
			seedCorpus(t, client, 3)
			if _, err := client.Train(2, 0); err != nil {
				t.Fatal(err)
			}
		}},
	}
	values := []struct {
		attr string
		ok   bool
	}{
		{"-1", false},
		{"-1e308", false},
		{"1e308", false},
		{"1e16", false},
		{"9007199254740992", true}, // 2^53
		{"0", true},
	}
	for _, mc := range models {
		t.Run(mc.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, client, _, _ := bootStatefulServer(t, dir)
			mc.install(t, srv, client)
			corpusAndWAL := func() (int, int64) {
				t.Helper()
				n, err := client.Stats()
				if err != nil {
					t.Fatal(err)
				}
				srv.mu.Lock()
				stats := srv.store.Stats()
				srv.mu.Unlock()
				return n["clean"] + n["dirty"], stats.SegmentBytes + stats.WALBytes
			}
			for _, v := range values {
				samples, walBytes := corpusAndWAL()
				rest := strings.Repeat(v.attr+",", acfg.NumAttributes-4) + v.attr
				doc := `{"family":"clean","acfg":{"n":2,"edges":[[0,1]],"attrs":[[1,0,0,` + rest + `],[0,0,0,` + rest + `]]}}`
				for path, accepted := range map[string]int{"/v1/predict": http.StatusOK, "/v1/samples": http.StatusCreated} {
					resp, err := http.Post(client.BaseURL+path, "application/json", strings.NewReader(doc))
					if err != nil {
						t.Fatalf("POST %s attr=%s: %v", path, v.attr, err)
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Fatal(err)
					}
					var answer map[string]any
					if err := json.Unmarshal(body, &answer); err != nil {
						t.Errorf("POST %s attr=%s: status %d over a body that is not JSON (%q): %v",
							path, v.attr, resp.StatusCode, body, err)
						continue
					}
					want := http.StatusBadRequest
					if v.ok {
						want = accepted
					}
					if resp.StatusCode != want {
						t.Errorf("POST %s attr=%s: status %d (%s), want %d", path, v.attr, resp.StatusCode, body, want)
					}
					if msg, _ := answer["error"].(string); !v.ok && !strings.Contains(msg, "attribute [0][3]") {
						t.Errorf("POST %s attr=%s: error %q does not name row 0, column 3", path, v.attr, msg)
					}
				}
				after, afterBytes := corpusAndWAL()
				if !v.ok && (after != samples || afterBytes != walBytes) {
					t.Errorf("attr=%s refused, yet corpus %d -> %d samples, segments %d -> %d bytes",
						v.attr, samples, after, walBytes, afterBytes)
				}
				if v.ok && after != samples+1 {
					t.Errorf("attr=%s admitted, yet corpus %d -> %d samples", v.attr, samples, after)
				}
			}
			if err := client.Health(); err != nil {
				t.Errorf("healthz after hostile input: %v", err)
			}
		})
	}
}

// TestWriteJSONEncodeFailure: a value JSON cannot carry never goes out as
// the caller's success status over an empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, math.NaN())
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", rec.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("body %q: not a decodable error (%v)", rec.Body.String(), err)
	}
}

func TestTrainRequiresTwoPerFamily(t *testing.T) {
	_, _, client := newTestServer(t, []string{"clean", "dirty"})
	if err := client.AddSampleASM("clean", "", chainProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Train(2, 0); err == nil {
		t.Fatal("want precondition error with underpopulated families")
	}
}

func TestTrainConflictWhileTraining(t *testing.T) {
	_, ts, client := newTestServer(t, []string{"clean", "dirty"})
	for i := 0; i < 2; i++ {
		if err := client.AddSampleASM("clean", "", variant(chainProgram, i)); err != nil {
			t.Fatal(err)
		}
		if err := client.AddSampleASM("dirty", "", variant(loopProgram, i)); err != nil {
			t.Fatal(err)
		}
	}
	// A real in-flight job: an epoch budget large enough that it is still
	// running when the second submission lands (409 is checked before the
	// first response returns, since admission is synchronous).
	job, err := client.StartTrain(context.Background(), 1_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != JobRunning {
		t.Fatalf("job status = %q, want running", job.Status)
	}
	resp, err := http.Post(ts.URL+"/v1/train", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
	if _, err := client.CancelTrain(context.Background(), job.Job); err != nil {
		t.Fatal(err)
	}
	st, err := client.WaitTrain(context.Background(), job.Job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != JobCancelled {
		t.Fatalf("cancelled job status = %q, want cancelled", st.Status)
	}
}

func TestModelEndpoint(t *testing.T) {
	srv, ts, _ := newTestServer(t, []string{"clean", "dirty"})
	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Installing a pre-trained model updates metadata.
	cfg := testConfig()
	m, err := core.NewModel(cfg, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadModel(m); err != nil {
		t.Fatal(err)
	}
	wrong := cfg
	wrong.Classes = 5
	m5, err := core.NewModel(wrong, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadModel(m5); err == nil {
		t.Fatal("want class-count mismatch error")
	}
}

func TestPredictACFGPath(t *testing.T) {
	srv, _, client := newTestServer(t, []string{"clean", "dirty"})
	cfg := testConfig()
	m, err := core.NewModel(cfg, []int{10})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadModel(m); err != nil {
		t.Fatal(err)
	}
	a := malgen.GenerateACFG(rand.New(rand.NewSource(2)), malgen.YanProfileFor(0))
	res, err := client.PredictACFG(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != a.NumVertices() {
		t.Fatalf("blocks = %d, want %d", res.Blocks, a.NumVertices())
	}
}

func TestConcurrentPredictions(t *testing.T) {
	srv, _, client := newTestServer(t, []string{"clean", "dirty"})
	m, err := core.NewModel(testConfig(), []int{10})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadModel(m); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.PredictASM(loopProgram)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

// variant splices i+1 extra arithmetic instructions ahead of prog's final
// ret so each variant has genuinely distinct ACFG content. Ingest dedup
// keys on the content hash, which counts instructions per block — comment
// or operand-value tweaks hash identically and would collapse to one
// sample.
func variant(prog string, i int) string {
	lines := strings.Split(strings.TrimSpace(prog), "\n")
	last := strings.Fields(lines[len(lines)-1])
	addr, err := strconv.ParseUint(last[0], 16, 64)
	if err != nil {
		panic("variant: final line has no address: " + lines[len(lines)-1])
	}
	out := append([]string{}, lines[:len(lines)-1]...)
	for k := 0; k <= i; k++ {
		out = append(out, fmt.Sprintf("%08x add eax, 1", addr))
		addr += 2
	}
	out = append(out, fmt.Sprintf("%08x ret", addr))
	return strings.Join(out, "\n") + "\n"
}

// TestSetParallelismRebuildsPool resizes the replica pool on a live server
// and checks pooled predictions still match the model bit-for-bit.
func TestSetParallelismRebuildsPool(t *testing.T) {
	srv, _, client := newTestServer(t, []string{"clean", "dirty"})
	m, err := core.NewModel(testConfig(), []int{10})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadModel(m); err != nil {
		t.Fatal(err)
	}
	if err := srv.SetParallelism(3); err != nil {
		t.Fatal(err)
	}
	a := malgen.GenerateACFG(rand.New(rand.NewSource(5)), malgen.YanProfileFor(1))
	want := m.Predict(a)
	for i := 0; i < 6; i++ { // cycle through every replica in the pool
		res, err := client.PredictACFG(a)
		if err != nil {
			t.Fatal(err)
		}
		for c, p := range res.Predictions {
			label := srv.labelOf[p.Family]
			if p.Probability != want[label] {
				t.Fatalf("request %d rank %d: pooled probability %v != model %v",
					i, c, p.Probability, want[label])
			}
		}
	}
}

// TestPredictsKeepServingDuringTraining checks the serving contract under
// the race detector: while /v1/train runs, concurrent /v1/predict requests
// answer from the previous model's replica pool without blocking.
func TestPredictsKeepServingDuringTraining(t *testing.T) {
	srv, _, client := newTestServer(t, []string{"chainy", "loopy"})
	if err := srv.SetParallelism(4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := client.AddSampleASM("chainy", "", variant(chainProgram, i)); err != nil {
			t.Fatal(err)
		}
		if err := client.AddSampleASM("loopy", "", variant(loopProgram, i)); err != nil {
			t.Fatal(err)
		}
	}
	initial, err := core.NewModel(testConfig(), []int{10})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadModel(initial); err != nil {
		t.Fatal(err)
	}

	trained := make(chan error, 1)
	go func() {
		_, err := client.Train(6, 0)
		trained <- err
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := client.PredictASM(loopProgram); err != nil {
					t.Errorf("predict during training: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := <-trained; err != nil {
		t.Fatalf("train: %v", err)
	}
	// The freshly trained model must now serve through a rebuilt pool.
	if _, err := client.PredictASM(chainProgram); err != nil {
		t.Fatal(err)
	}
}
