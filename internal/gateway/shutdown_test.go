package gateway

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/leakcheck"
)

// TestCancelledRequestsLeaveNoGoroutine pins the gateway's cancellation
// chain: every backend call runs under the client's request context, so a
// client that gives up mid-flight — here on a backend that would otherwise
// hold each call until the test ends — takes the handler and its fan-out
// goroutines down with it.
func TestCancelledRequestsLeaveNoGoroutine(t *testing.T) {
	release := make(chan struct{})
	arrived := make(chan struct{}, 3) // one per request below: the backend never blocks on it
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// net/http notices a vanished caller only once the body is read.
		_, _ = io.Copy(io.Discard, r.Body)
		arrived <- struct{}{}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer backend.Close()
	defer close(release) // before backend.Close, which waits for its handlers

	gwts, _ := newTestGateway(t, []string{backend.URL}, 0)
	hc := &http.Client{}
	defer hc.CloseIdleConnections()

	check := leakcheck.Start(t)
	for _, c := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/predict", `{"asm":"00401000 ret\n"}`},
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/v1/models", ""},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, c.method, gwts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			select {
			case <-arrived: // the gateway's backend call is in flight
			case <-ctx.Done():
			}
			cancel()
		}()
		resp, err := hc.Do(req)
		cancel()
		if err == nil {
			resp.Body.Close()
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s %s: err = %v, want the client's cancellation", c.method, c.path, err)
		}
	}
	check()
}
