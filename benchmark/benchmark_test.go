package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentilePicksNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000, ascending
	}
	for _, tc := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {100, 1000}, {0.01, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted {9,1,5} = %v, want 5", got)
	}
	if got, err := p99(xs); err != nil || got != 990 {
		t.Errorf("p99 over 1000 samples = %v, %v; want 990", got, err)
	}
	if _, err := p99(xs[:999]); err == nil {
		t.Error("p99 over 999 samples: want a refusal")
	}
}

// TestClosedLoopCountsFailures: a 500, a timeout and a wrong answer each
// count as failed against attempted, and only the good answers are timed.
func TestClosedLoopCountsFailures(t *testing.T) {
	var served atomic.Int64
	ln, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch served.Add(1) % 4 {
		case 0:
			http.Error(w, "boom", http.StatusInternalServerError)
		case 1:
			time.Sleep(300 * time.Millisecond) // beyond the client's timeout
		case 2:
			fmt.Fprint(w, "wrong")
		default:
			fmt.Fprint(w, "right")
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := ln.close(); err != nil {
			t.Error(err)
		}
	}()
	in := input{rest: []byte(`"x":1}`)}
	const requests = 8
	l := &load{
		clients: 1, duration: time.Minute, timeout: 100 * time.Millisecond,
		url: ln.url, route: "/", okStatus: http.StatusOK, ids: &idSource{},
		next: firstN(requests, func(int, int) (*input, int, bool) { return &in, 0, true }),
		check: func(_ int, r reply) error {
			if r.status != http.StatusOK || string(r.body) != "right" {
				return fmt.Errorf("status %d body %q", r.status, r.body)
			}
			return nil
		},
	}
	w := l.run()
	if w.attempted != requests || w.failed != 6 || len(w.latencies) != 2 {
		t.Errorf("attempted %d failed %d timed %d; want %d, 6, 2 (errors: %v)", w.attempted, w.failed, len(w.latencies), requests, w.errors)
	}
}

// TestSlices: a success counts in the second its answer arrived in, and one
// that arrives after the deadline in the last.
func TestSlices(t *testing.T) {
	var ends []float64
	for second, answers := range []int{10, 2, 10, 11} {
		for i := 0; i < answers; i++ {
			ends = append(ends, float64(second)+float64(i)/20)
		}
	}
	ends[len(ends)-1] = 4.2
	var w window
	w.slice(ends, 4*time.Second)
	if got := fmt.Sprint(w.sliceRPS); got != "[10 2 10 11]" {
		t.Errorf("sliceRPS = %s, want [10 2 10 11]", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	spans := []span{
		{Name: spanClient, Request: "a", StartNs: 0, EndNs: us(1000)},
		{Name: spanGateway, Request: "a", Parent: spanClient, StartNs: us(100), EndNs: us(900), Cache: "miss"},
		{Name: spanService, Request: "a", Parent: spanGateway, StartNs: us(200), EndNs: us(700)},
		{Name: spanGateway, Request: "b", Parent: spanClient, StartNs: 0, EndNs: us(50), Cache: "hit"},
	}
	got := selfTimes(spans, spanGateway)
	if len(got) != 2 || got[0] != 300 || got[1] != 50 {
		t.Errorf("gateway self times = %v, want [300 50]", got)
	}
	if got := clientOverhead(spans, spanGateway, ""); len(got) != 1 || got[0] != 200 {
		t.Errorf("client overhead = %v, want [200]", got)
	}
	if id := requestID([]byte(`{"name":"r-42","acfg":{}}`)); id != "r-42" {
		t.Errorf("requestID = %q, want r-42", id)
	}
}

func TestSameSeedSameBodies(t *testing.T) {
	bodies := func(seed int64) [][]byte {
		b := newBench(runConfig{seed: seed, sizes: smokeSizes})
		graphs, err := acfgInputs(b.rng(1), 8, anyClass, true)
		if err != nil {
			t.Fatal(err)
		}
		listings, err := asmInputs(b.rng(1), 2)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, in := range append(graphs, listings...) {
			out = append(out, in.body(nil, "r-1"))
		}
		return out
	}
	a, again, other := bodies(7), bodies(7), bodies(8)
	for i := range a {
		if !bytes.Equal(a[i], again[i]) {
			t.Errorf("input %d: same seed, different bodies", i)
		}
		if bytes.Equal(a[i], other[i]) {
			t.Errorf("input %d: different seeds, same body", i)
		}
		if !json.Valid(a[i]) {
			t.Errorf("input %d: body is not JSON: %.80s", i, a[i])
		}
	}
}

// TestCatalogueMatchesManifest: every name this program prints is declared
// in ../BENCHMARK.json with the same unit, and the other way round.
func TestCatalogueMatchesManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var m struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	same := func(what string, have []metricDef, want []declared) {
		t.Helper()
		if len(have) != len(want) {
			t.Errorf("%s: program has %d, manifest %d", what, len(have), len(want))
			return
		}
		for i, d := range have {
			if d.name != want[i].Name || d.unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), manifest %s (%s)", what, i, d.name, d.unit, want[i].Name, want[i].Unit)
			}
			if !nameRe.MatchString(d.name) {
				t.Errorf("%s: name %q outside [A-Za-z0-9_.-]", what, d.name)
			}
		}
	}
	same("end_to_end", endToEnd, m.EndToEnd)
	same("per_layer", perLayer, m.PerLayer)
	var names []metricDef
	for _, wl := range workloads {
		names = append(names, metricDef{name: wl.name})
	}
	same("workloads", names, m.Workloads)
}

// TestSmoke runs all four workloads end to end on tiny inputs, untraced and
// traced, correctness checks included.
func TestSmoke(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := realMain([]string{"-workload", "all", "-seed", "5", "-seconds", "0.5", "-trace", trace, "-smoke", "-workdir", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\nstdout:\n%s\nstderr:\n%s", trace, code, stdout.String(), stderr.String())
		}
		results := 0
		for _, line := range strings.Split(stdout.String(), "\n") {
			if !strings.HasPrefix(line, "{") {
				continue
			}
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("trace %s: result line: %v", trace, err)
			}
			results++
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
				t.Errorf("trace %s: result %d: correct %v, %d failed of %d, %d metrics (want %d)",
					trace, results, res.Correct, res.Failed, res.Attempted, len(res.Metrics), len(defs))
			}
		}
		if results != len(workloads) {
			t.Errorf("trace %s: %d result lines, want %d", trace, results, len(workloads))
		}
	}
}

// TestTracedRunOwesNoTail: a traced run reports only per-layer metrics, so
// its half-length windows are not held to the 1000 samples the end-to-end
// p99 needs. Full-size inputs (the smoke sizes waive that refusal anyway) and
// a window far too short for a tail.
func TestTracedRunOwesNoTail(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full-size workload")
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "classify-acfg-lone", "-seed", "5", "-seconds", "1", "-trace", "1", "-workdir", t.TempDir()}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

func TestRepeatAgreement(t *testing.T) {
	var m manifest
	if err := json.Unmarshal([]byte(`{"end_to_end":[
		{"name":"throughput_rps","better":"higher","bound":0.1},
		{"name":"latency_p50_ms","better":"lower","bound":0.1}]}`), &m); err != nil {
		t.Fatal(err)
	}
	first := map[string]float64{"throughput_rps": 100, "latency_p50_ms": 10}
	var out bytes.Buffer
	if !agree(&out, "w", first, map[string]float64{"throughput_rps": 95, "latency_p50_ms": 10.5}, &m) {
		t.Errorf("5 %% worse within a 10 %% bound should agree:\n%s", out.String())
	}
	if agree(&out, "w", first, map[string]float64{"throughput_rps": 85, "latency_p50_ms": 10}, &m) {
		t.Error("throughput 15 % lower against a 10 % bound should disagree")
	}
	if !agree(&out, "w", first, map[string]float64{"throughput_rps": 150, "latency_p50_ms": 5}, &m) {
		t.Error("a better second run is not a disagreement")
	}
}
