package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestWrapRecordsRequestMetrics(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r)
	h := m.Wrap("/thing", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("fail") != "" {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "?fail=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if got := m.requests.With("/thing", "GET", "200").Value(); got != 3 {
		t.Fatalf("200 count = %v, want 3", got)
	}
	if got := m.requests.With("/thing", "GET", "500").Value(); got != 1 {
		t.Fatalf("500 count = %v, want 1", got)
	}
	if got := m.inFlight.With("/thing").Value(); got != 0 {
		t.Fatalf("in-flight = %v, want 0 after completion", got)
	}
	if got := m.duration.With("/thing").Count(); got != 4 {
		t.Fatalf("latency observations = %v, want 4", got)
	}
}

func TestWrapImplicitOKStatus(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r)
	// Handler never calls WriteHeader: the middleware must attribute 200.
	h := m.Wrap("/implicit", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "hi")
	}))
	req := httptest.NewRequest("GET", "/implicit", nil)
	h.ServeHTTP(httptest.NewRecorder(), req)
	if got := m.requests.With("/implicit", "GET", "200").Value(); got != 1 {
		t.Fatalf("200 count = %v, want 1", got)
	}
}

func TestWrapInFlightDuringRequest(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r)
	entered := make(chan struct{})
	release := make(chan struct{})
	h := m.Wrap("/slow", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
	}))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/slow", nil))
	}()
	<-entered
	if got := m.inFlight.With("/slow").Value(); got != 1 {
		t.Fatalf("in-flight = %v, want 1 while handler runs", got)
	}
	close(release)
	wg.Wait()
	if got := m.inFlight.With("/slow").Value(); got != 0 {
		t.Fatalf("in-flight = %v, want 0 after handler returns", got)
	}
}

func TestRegistryHandlerServesText(t *testing.T) {
	r := NewRegistry()
	r.Counter("magic_test_total", "help").Inc()
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "magic_test_total 1") {
		t.Fatalf("exposition missing counter: %q", body)
	}
}
