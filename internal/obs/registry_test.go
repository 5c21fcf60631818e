package obs

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestCounterConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("magic_test_ops_total", "ops")
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %v, want %d", got, goroutines*perG)
	}
}

func TestCounterVecConcurrentChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("magic_test_labeled_total", "labeled", "shard")
	shards := []string{"a", "b", "c"}
	const goroutines, perG = 12, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// All goroutines race With() on the same children.
			shard := shards[g%len(shards)]
			for i := 0; i < perG; i++ {
				v.With(shard).Inc()
			}
		}(g)
	}
	wg.Wait()
	total := 0.0
	for _, s := range shards {
		total += v.With(s).Value()
	}
	if total != goroutines*perG {
		t.Fatalf("sum over shards = %v, want %d", total, goroutines*perG)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("magic_test_inflight", "inflight")
	g.Set(5)
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %v, want 6", got)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("magic_test_updown", "pairs of inc/dec")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %v, want 0 after balanced inc/dec", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("magic_test_latency_seconds", "latency", []float64{1, 2, 4})
	// le bounds are inclusive: an observation exactly on a bound lands in
	// that bound's bucket.
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 4.0, 4.5} {
		h.Observe(v)
	}
	cum := h.cumulative()
	want := []uint64{2, 4, 5} // ≤1: {0.5,1}, ≤2: +{1.5,2}, ≤4: +{4}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative[%d] = %d, want %d (all %v)", i, cum[i], want[i], cum)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.5+2+4+4.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("magic_test_conc_seconds", "latency", ExpBuckets(0.001, 2, 10))
	var wg sync.WaitGroup
	const goroutines, perG = 10, 800
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g%4) * 0.005)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*perG {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*perG)
	}
	cum := h.cumulative()
	if last := cum[len(cum)-1]; last != goroutines*perG {
		t.Fatalf("last cumulative bucket = %d, want %d", last, goroutines*perG)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.CounterVec("magic_test_total", "help", "k")
	b := r.CounterVec("magic_test_total", "help", "k")
	a.With("x").Inc()
	if got := b.With("x").Value(); got != 1 {
		t.Fatalf("second registration saw %v, want shared child with 1", got)
	}
}

func TestRegistrationConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("magic_test_total", "help")
	for name, f := range map[string]func(){
		"type change":  func() { r.Gauge("magic_test_total", "help") },
		"label change": func() { r.CounterVec("magic_test_total", "help", "k") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			f()
		}()
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(what string, register func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", what)
			}
		}()
		register()
	}
	// Outside the Prometheus charset, then outside the magic_ grammar.
	for _, name := range []string{"", "9leading", "has space", "dash-ed",
		"predict_batches_total", "magic_", "magic_Model_Versions", "magic:x"} {
		mustPanic(fmt.Sprintf("metric name %q", name), func() { r.Counter(name, "help") })
	}
	for _, key := range []string{"bad:label", "Kind", "_lead", "9lead", ""} {
		mustPanic(fmt.Sprintf("label key %q", key), func() { r.CounterVec("magic_test_ok_total", "help", key) })
	}
	mustPanic("five label keys", func() { r.GaugeVec("magic_test_wide", "help", "a", "b", "c", "d", "e") })
	r.GaugeVec("magic_test_four_keys", "help", "a", "b", "c", "d") // the bound itself is allowed
}

func TestWithWrongArity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("magic_test_total", "help", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on wrong label arity")
		}
	}()
	v.With("only-one")
}

func TestCounterAddNegativePanics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("magic_test_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on negative counter add")
		}
	}()
	c.Add(-1)
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.25, 2, 4)
	want := []float64{0.25, 0.5, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}
