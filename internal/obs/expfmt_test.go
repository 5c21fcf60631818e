package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with one metric of every kind plus an
// escaping edge case, with fully deterministic values.
func goldenRegistry() *Registry {
	r := NewRegistry()

	lat := r.Histogram("magic_demo_latency_seconds", "Demo latency.", []float64{0.25, 1, 10})
	for _, v := range []float64{0.125, 0.25, 5, 20} {
		lat.Observe(v)
	}

	r.GaugeVec("magic_demo_quoted", "Quoted label value.", "path").With(`a"b\c`).Set(1)

	req := r.CounterVec("magic_demo_requests_total", "Total demo requests.", "endpoint", "code")
	req.With("/predict", "200").Add(3)
	req.With("/train", "500").Inc()

	r.Gauge("magic_demo_temperature", "Current temperature.").Set(-2.5)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	path := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	r := goldenRegistry()
	var a, b strings.Builder
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two renders of the same registry differ")
	}
}

// TestExpositionLinesWellFormed is a light structural validation of the
// text format: every line is either a comment or "name[{labels}] value".
func TestExpositionLinesWellFormed(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		series := line[:i]
		if open := strings.IndexByte(series, '{'); open >= 0 && !strings.HasSuffix(series, "}") {
			t.Fatalf("unbalanced labels in %q", line)
		}
	}
}

func TestEmptyRegistry(t *testing.T) {
	var sb strings.Builder
	if err := NewRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("empty registry rendered %q", sb.String())
	}
}
