// Command benchmark is the repository's yardstick: four closed-loop
// workloads driven over loopback HTTP against an in-process magic-server
// and magic-gateway at their shipped defaults, every answer checked, every
// metric printed by name and unit. See README.md for the workloads, the
// metrics and how they interact; ../BENCHMARK.json declares them to the
// driver.
//
//	bash benchmark/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 a run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics from a traced pass and a stage walk, and
// writes the spans it recorded as JSON lines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// workload is one traffic mix. ../BENCHMARK.json and README.md record why
// each is here.
type workload struct {
	name string
	// run sets the workload up, measures it and fills b.out; in a traced
	// run it fills the per-layer metrics instead of the end-to-end ones.
	run func(b *bench, name string) error
}

var workloads = []workload{
	{"classify-acfg-lone", classifyWith(classifySpec{lone: true})},
	{"classify-asm-large", classifyWith(classifySpec{asm: true})},
	{"gateway-repeat-mix", classifyWith(classifySpec{viaGateway: true})},
	{"corpus-lifecycle", runLifecycle},
}

func classifyWith(spec classifySpec) func(*bench, string) error {
	return func(b *bench, name string) error { return runClassify(b, name, spec) }
}

func runClassify(b *bench, name string, spec classifySpec) (err error) {
	start := time.Now()
	c, err := setupClassify(b, spec)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.out["setup_s"] = time.Since(start).Seconds()
	defer func() {
		if cerr := c.close(); err == nil {
			err = cerr
		}
	}()
	m, err := c.measure(b)
	if err != nil {
		return err
	}
	if !b.cfg.trace {
		b.endToEnd(m.plain)
	}
	if spec.viaGateway {
		if int(c.coldNext.Load()) > len(c.inputs)-c.coldFrom {
			b.problemf("the %d never-seen graphs ran out before the window ended", len(c.inputs)-c.coldFrom)
		}
		if err := c.checkCacheCounters(b); err != nil {
			return err
		}
	}
	if err := c.verify(b); err != nil {
		return err
	}
	if !b.cfg.trace {
		return nil
	}
	c.layers(b, m)
	if err := stageWalk(b, c.inputs, c.families, c.modelCfg, spec.viaGateway); err != nil {
		return err
	}
	return writeSpans(b.spanPath(name), m.spans)
}

func runLifecycle(b *bench, name string) (err error) {
	start := time.Now()
	lc, err := setupLifecycle(b)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.out["setup_s"] = time.Since(start).Seconds()
	defer func() {
		if cerr := lc.close(); err == nil {
			err = cerr
		}
	}()
	if err := lc.train(b); err != nil {
		return err
	}
	uploads, err := lc.ingest(b)
	if err != nil {
		return err
	}
	if err := lc.restart(b); err != nil {
		return err
	}
	m, err := lc.serve(b)
	if err != nil {
		return err
	}
	if !b.cfg.trace {
		b.endToEnd(m.plain)
		return nil
	}
	lc.layers(b, m, uploads)
	if err := stageWalk(b, lc.pool, lc.families, lc.modelCfg, true); err != nil {
		return err
	}
	return writeSpans(b.spanPath(name), append(uploads, m.spans...))
}

// runOnce runs one workload once and prints its report.
func runOnce(w io.Writer, wl workload, cfg runConfig) (map[string]float64, bool, error) {
	b := newBench(cfg)
	fmt.Fprintf(w, "## %s seed=%d seconds=%g trace=%v clients<=%d\n", wl.name, cfg.seed, cfg.seconds, cfg.trace, generatorClients())
	if err := wl.run(b, wl.name); err != nil {
		return nil, false, fmt.Errorf("%s: %w", wl.name, err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := report(w, defs, b.out, b.attempted, b.failed, b.problems); err != nil {
		return nil, false, err
	}
	return b.out, b.failed == 0 && len(b.problems) == 0, nil
}

// manifestPath is where the self-agreement mode reads the bounds from: the
// program runs from the root of the checkout.
const manifestPath = "BENCHMARK.json"

// manifest is the part of BENCHMARK.json the self-agreement mode reads.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// agree compares the end-to-end metrics of the first and the last of the
// repeated runs: the later may not be worse than the earlier by more than
// the metric's own bound in BENCHMARK.json.
func agree(w io.Writer, name string, first, last map[string]float64, m *manifest) bool {
	ok := true
	for _, def := range m.EndToEnd {
		a, z := first[def.Name], last[def.Name]
		if a == 0 {
			continue
		}
		worse := (z - a) / a
		if def.Better == "higher" {
			worse = -worse
		}
		verdict := "agree"
		if worse > def.Bound || math.IsNaN(worse) {
			verdict, ok = "DISAGREE", false
		}
		fmt.Fprintf(w, "repeat %-20s %-16s first %12.4f last %12.4f worse by %+6.1f%% (bound %.0f%%) %s\n",
			name, def.Name, a, z, 100*worse, 100*def.Bound, verdict)
	}
	return ok
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "drives every input generator")
	seconds := fs.Float64("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "1: traced pass, per-layer metrics and span file; 0: end-to-end metrics")
	repeat := fs.Int("repeat", 1, "run each workload this many times; with 2 or more, exit non-zero if the end-to-end metrics of the first and last run differ by more than their bounds in ./"+manifestPath)
	smoke := fs.Bool("smoke", false, "tiny inputs: proves the workloads run and check their answers, measures nothing comparable")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "run"), "scratch directory for state dirs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, sizes: fullSizes, workDir: *workDir}
	if *smoke {
		cfg.sizes = smokeSizes
	}
	var selected []workload
	for _, wl := range workloads {
		if *name == "all" || *name == wl.name {
			selected = append(selected, wl)
		}
	}
	if len(selected) == 0 || cfg.seconds <= 0 || *repeat < 1 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q, or non-positive -seconds or -repeat\n", *name)
		return 2
	}
	var bounds manifest
	if *repeat > 1 && !cfg.trace {
		raw, err := os.ReadFile(manifestPath)
		if err == nil {
			err = json.Unmarshal(raw, &bounds)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: -repeat needs the bounds: %v\n", err)
			return 2
		}
	}
	status := 0
	for _, wl := range selected {
		var first, last map[string]float64
		for r := 0; r < *repeat; r++ {
			// A run leaves a collection goal of gigabytes behind, and the next
			// would set up without one collection, on pages never touched, at a
			// third of the speed (2.4 s, then 7.3 s). Every run starts collected,
			// like the fresh process the driver gives it.
			debug.FreeOSMemory()
			values, correct, err := runOnce(stdout, wl, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			if !correct {
				status = 1
			}
			if r == 0 {
				first = values
			}
			last = values
		}
		if *repeat > 1 && !cfg.trace && !agree(stdout, wl.name, first, last, &bounds) {
			status = 1
		}
	}
	return status
}
