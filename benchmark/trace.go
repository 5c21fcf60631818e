package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, outermost first. A span's parent is the span of the same
// request that caused it: the client for the first server it reaches, the
// gateway for a backend call.
const (
	spanClient  = "client"
	spanGateway = "gateway"
	spanService = "service"
)

// span is one layer's share of one request, recorded by this program's own
// wrappers around the servers' handlers.
type span struct {
	Name    string `json:"name"`
	Request string `json:"request"`
	Parent  string `json:"parent,omitempty"`
	Route   string `json:"route"`
	StartNs int64  `json:"start_ns"` // since the recorder was made
	EndNs   int64  `json:"end_ns"`
	Cache   string `json:"cache,omitempty"` // X-Magic-Cache of a gateway span
}

func (s span) durUs() float64 { return float64(s.EndNs-s.StartNs) / 1e3 }

// recorder keeps spans in memory while it is on; it is off outside the
// traced window, so the untraced pass pays one atomic load per request.
type recorder struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// take returns the recorded spans and forgets them.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// requestID reads the id out of a body made by input.body without decoding
// it: the name is always the first field.
func requestID(body []byte) string {
	const prefix = `{"name":"`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return ""
	}
	rest := body[len(prefix):]
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return ""
	}
	return string(rest[:end])
}

// wrap records a span named name around every request next serves while
// the recorder is on.
func (r *recorder) wrap(name, parent string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			next.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		body, err := io.ReadAll(req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		next.ServeHTTP(w, req)
		r.add(span{
			Name:    name,
			Request: requestID(body),
			Parent:  parent,
			Route:   req.URL.Path,
			StartNs: r.since(start),
			EndNs:   r.since(time.Now()),
			Cache:   w.Header().Get("X-Magic-Cache"),
		})
	})
}

// selfTimes returns, for every span named name, its duration minus the
// part its children (spans of the same request whose parent is name) cover.
func selfTimes(spans []span, name string) []float64 {
	children := make(map[string]float64)
	for _, s := range spans {
		if s.Parent == name {
			children[s.Request] += s.durUs()
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.durUs()-children[s.Request])
		}
	}
	return out
}

// durations returns the durations in µs of the spans keep selects.
func durations(spans []span, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if keep(s) {
			out = append(out, s.durUs())
		}
	}
	return out
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("write spans: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
