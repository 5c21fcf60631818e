package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one row of the benchmark's metric catalogue. The same names
// and units are declared in ../BENCHMARK.json; TestCatalogueMatchesManifest
// keeps the two lists identical.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the numbers a caller sees. Every workload reports every one
// of them over its own primary operation (see the table in README.md): a
// verified /v1/predict answer — on corpus-lifecycle from the server that was
// trained, loaded with uploads and restarted first.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// perLayer are the traced pass's numbers, named <module>.<what>.<unit>.
// A layer that is not on a workload's path reports 0 there.
var perLayer = []metricDef{
	{"client.overhead.p50_us", "us"},
	{"gateway.handler_hit.p50_us", "us"},
	{"gateway.handler_hit.allocs", "count"},
	{"gateway.handler_miss.p50_us", "us"},
	{"gateway.self_miss.p50_us", "us"},
	{"gateway.cache_hit_ratio", "ratio"},
	{"gateway.cache_entries.count", "count"},
	{"service.handler.p50_us", "us"},
	{"service.handler.p99_us", "us"},
	{"service.queue_wait.p50_us", "us"},
	{"service.batch_size.mean", "count"},
	{"service.json_decode.us", "us"},
	{"service.json_decode.allocs", "count"},
	{"service.json_encode.us", "us"},
	{"asm.parse.us", "us"},
	{"asm.parse.allocs", "count"},
	{"cfg.build.us", "us"},
	{"cfg.build.allocs", "count"},
	{"acfg.from_cfg.us", "us"},
	{"acfg.from_cfg.allocs", "count"},
	{"acfg.content_hash.us", "us"},
	{"graph.csr_build.us", "us"},
	{"graph.spmm.us", "us"},
	{"tensor.matmul.us", "us"},
	{"core.predict.us", "us"},
	{"core.predict.allocs", "count"},
	{"core.predict_batch32.us_per_sample", "us"},
	{"core.forward_train.us", "us"},
	{"core.backward.us", "us"},
	{"core.epoch.p50_s", "s"},
	{"core.parallel.busy_ratio", "ratio"},
	{"service.train_job_overhead.s", "s"},
	{"service.train_samples_per_s", "1/s"},
	{"service.ingest_rps", "1/s"},
	{"service.accuracy", "ratio"},
	{"service.wal_append.us", "us"},
	{"service.ingest_handler.p50_us", "us"},
	{"corpus.segment_write.us_per_record", "us"},
	{"corpus.segment_iterate.us_per_record", "us"},
	{"service.replay_wal.us_per_sample", "us"},
	{"service.restart.ms", "ms"},
	{"service.compactions.count", "count"},
	{"service.dedup.count", "count"},
	{"process.mallocs_per_op", "count"},
	{"process.alloc_kb_per_op", "KB"},
	{"process.gc_cpu_pct", "%"},
	{"process.peak_rss_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// minP99Samples is the fewest latencies p99 is reported on: with 1000, ten
// samples lie beyond the reported rank.
const minP99Samples = 1000

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// ascending returns a sorted copy of xs.
func ascending(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(ascending(xs), 50) }

// p99 refuses to report a tail it has too few samples for.
func p99(sorted []float64) (float64, error) {
	if len(sorted) < minP99Samples {
		return 0, fmt.Errorf("p99 needs at least %d samples, have %d", minP99Samples, len(sorted))
	}
	return percentile(sorted, 99), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// result is the last line of standard output: the contract between this
// program and whatever drives it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of defs by name and unit, then the result
// line. A metric the run did not produce is reported as 0.
func report(w io.Writer, defs []metricDef, values map[string]float64, attempted, failed int, problems []string) error {
	res := result{
		Correct:   failed == 0 && len(problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := values[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-40s %14.4f %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(w, "%-40s %14.6f ratio (%d failed of %d attempted)\n", "error_rate", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	for _, p := range problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
