package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one request of the generator; a request that hits it
// is a failed operation.
const requestTimeout = 20 * time.Second

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan error
}

// listen serves h on 127.0.0.1:0 with the timeouts the shipped mains set.
func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close drains in-flight requests and waits for the serve goroutine.
func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serveErr := <-l.done; err == nil && !errors.Is(serveErr, http.ErrServerClosed) {
		err = serveErr
	}
	return err
}

// newHTTPClient returns a keep-alive client holding at most conns
// connections, so the generator never opens more than its client count.
func newHTTPClient(conns int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		},
	}
}

// reply is what a checker sees of one answer.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// post sends one body and reads the whole answer.
func post(hc *http.Client, url string, body []byte) (reply, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: raw}, nil
}

// load describes one closed-loop run: clients goroutines each send their
// next request only after the previous answer arrived and was checked.
type load struct {
	clients  int
	duration time.Duration
	timeout  time.Duration // per request; 0 selects requestTimeout
	url      string        // server the generator talks to
	route    string        // e.g. /v1/predict
	okStatus int           // the status a correct answer carries
	// next picks the input of a client's n-th request; ok false ends that
	// client's loop early (its inputs ran out).
	next func(client, n int) (in *input, idx int, ok bool)
	// check judges one answer; a non-nil error is a failed operation.
	check func(idx int, r reply) error
	rec   *recorder // client spans, when on
	ids   *idSource
}

// firstN returns a next that hands the ordinals 0..n-1 to pick, across all
// clients, and then ends their loops: a fixed amount of work instead of a
// time box.
func firstN(n int, pick func(client, i int) (*input, int, bool)) func(int, int) (*input, int, bool) {
	var taken atomic.Int64
	return func(client, _ int) (*input, int, bool) {
		i := int(taken.Add(1)) - 1
		if i >= n {
			return nil, 0, false
		}
		return pick(client, i)
	}
}

// idSource numbers requests across windows so no two share a span id.
type idSource struct{ n atomic.Int64 }

func (s *idSource) nextID() string {
	return "r-" + strconv.FormatInt(s.n.Add(1), 10)
}

// window is what a closed-loop run measured.
type window struct {
	attempted int
	failed    int
	latencies []float64 // ms, successful operations only, ascending
	elapsed   time.Duration
	errors    []string // first few failures, for the report

	// sliceRPS is the successes per second of each slice of about a second,
	// by the time the answer arrived: where in the window a stall fell.
	sliceRPS []float64
}

func (w *window) successes() int { return w.attempted - w.failed }

// throughput is successes over the whole window's wall time.
func (w *window) throughput() float64 {
	if w.elapsed <= 0 {
		return 0
	}
	return float64(w.successes()) / w.elapsed.Seconds()
}

// slice fills sliceRPS from the successes' arrival times (seconds since the
// window began) over a window that lasted d.
func (w *window) slice(ends []float64, d time.Duration) {
	n := max(int(d.Seconds()), 1)
	width := d.Seconds() / float64(n)
	w.sliceRPS = make([]float64, n)
	for _, end := range ends {
		// An answer that arrives after the deadline belongs to the last slice.
		w.sliceRPS[min(int(end/width), n-1)]++
	}
	for i := range w.sliceRPS {
		w.sliceRPS[i] /= width
	}
}

// print writes the window's own numbers as a comment line of the report.
func (w *window) print(what string) {
	fmt.Printf("# %s window: %d requests in %.2fs: %d ok, %d failed; %.1f/s, p50 %.3f ms, p99 %.3f ms; per second %.0f\n",
		what, w.attempted, w.elapsed.Seconds(), w.successes(), w.failed, w.throughput(),
		percentile(w.latencies, 50), percentile(w.latencies, 99), w.sliceRPS)
}

// maxReportedErrors bounds how many failures a run spells out.
const maxReportedErrors = 5

// run drives the load and returns when every client has received its last
// answer. Transport errors, timeouts, and answers check rejects all count
// as failed against attempted.
func (l *load) run() *window {
	timeout := l.timeout
	if timeout == 0 {
		timeout = requestTimeout
	}
	hc := newHTTPClient(l.clients, timeout)
	defer hc.CloseIdleConnections()
	type clientResult struct {
		attempted int
		lat       []float64
		ends      []float64 // s since start, aligned with lat
		errs      []string
	}
	results := make([]clientResult, l.clients)
	start := time.Now()
	deadline := start.Add(l.duration)
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			var buf []byte
			for n := 0; time.Now().Before(deadline); n++ {
				in, idx, ok := l.next(c, n)
				if !ok {
					return
				}
				id := l.ids.nextID()
				buf = in.body(buf, id)
				res.attempted++
				t0 := time.Now()
				r, err := post(hc, l.url+l.route, buf)
				t1 := time.Now()
				if err == nil {
					err = l.check(idx, r)
				}
				if err != nil {
					if len(res.errs) < maxReportedErrors {
						res.errs = append(res.errs, fmt.Sprintf("request %s (input %d): %v", id, idx, err))
					}
					continue
				}
				res.lat = append(res.lat, float64(t1.Sub(t0))/1e6)
				res.ends = append(res.ends, t1.Sub(start).Seconds())
				if l.rec != nil && l.rec.on.Load() {
					l.rec.add(span{Name: spanClient, Request: id, Route: l.route,
						StartNs: l.rec.since(t0), EndNs: l.rec.since(t1)})
				}
			}
		}(c)
	}
	wg.Wait()
	w := &window{elapsed: time.Since(start)}
	var ends []float64
	for _, res := range results {
		w.attempted += res.attempted
		w.failed += res.attempted - len(res.lat)
		w.latencies = append(w.latencies, res.lat...)
		ends = append(ends, res.ends...)
		for _, e := range res.errs {
			if len(w.errors) < maxReportedErrors {
				w.errors = append(w.errors, e)
			}
		}
	}
	w.slice(ends, min(l.duration, w.elapsed))
	sort.Float64s(w.latencies)
	return w
}

// generatorClients is how many closed-loop connections a concurrent
// workload opens: never more than the cores this process may use, because
// the generator shares them with the servers it drives.
func generatorClients() int {
	return min(runtime.GOMAXPROCS(0), 4)
}

// procStats is a reading of the process-wide counters the per-op process
// metrics are deltas of.
type procStats struct {
	mallocs    uint64
	allocBytes uint64
	gcCPU      float64
	busyCPU    float64 // total minus idle
}

func readProcStats() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(cpu)
	seconds := func(s metrics.Sample) float64 {
		if s.Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s.Value.Float64()
	}
	return procStats{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCPU:      seconds(cpu[0]),
		busyCPU:    seconds(cpu[1]) - seconds(cpu[2]),
	}
}

// liveHeapMB is the heap still reachable after two forced collections (the
// second frees what finalizers of the first released).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// peakRSSMB reads the process's high-water resident set from the kernel;
// 0 where /proc is not available.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
