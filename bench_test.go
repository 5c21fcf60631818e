// Package repro's benchmark harness regenerates every table and figure of
// the paper (see DESIGN.md's per-experiment index) at reduced scale and
// reports the headline quality numbers as benchmark metrics (acc = accuracy,
// nll = mean log loss, f1 = macro F1), so `go test -bench=.` both times the
// pipeline and records the reproduction's quality series. cmd/magic-bench
// runs the same experiments at full scale and prints the complete tables.
package repro

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/acfg"
	"repro/internal/asm"
	"repro/internal/baseline"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/malgen"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// benchOpts keeps each experiment's single benchmark iteration around half
// a minute on one CPU core. Scale up via cmd/magic-bench for full runs.
func benchOpts(samples int) experiments.Options {
	return experiments.Options{Samples: samples, Epochs: 6, Folds: 2, Seed: 1}
}

// recordOpts is the near-record scale used for the headline quality
// benchmarks (the sweep-selected model is cheap enough to train properly
// inside a benchmark iteration).
func recordOpts(samples int) experiments.Options {
	return experiments.Options{Samples: samples, Epochs: 20, Folds: 3, Seed: 1}
}

// BenchmarkFig7MSKCFGGeneration regenerates Figure 7: the MSKCFG-style
// corpus and its family distribution.
func BenchmarkFig7MSKCFGGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dist, err := experiments.Figure7(benchOpts(240))
		if err != nil {
			b.Fatal(err)
		}
		if len(dist) != 9 {
			b.Fatalf("families = %d", len(dist))
		}
	}
}

// BenchmarkFig8YANCFGGeneration regenerates Figure 8.
func BenchmarkFig8YANCFGGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dist, err := experiments.Figure8(benchOpts(300))
		if err != nil {
			b.Fatal(err)
		}
		if len(dist) != 13 {
			b.Fatalf("classes = %d", len(dist))
		}
	}
}

// BenchmarkTable3MSKCFG regenerates Table III / Figure 9: MAGIC
// cross-validation on the MSKCFG-style corpus. Paper reference: accuracy
// 0.9925, mean log loss 0.0543, per-family F1 ≥ 0.97.
func BenchmarkTable3MSKCFG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cv, err := experiments.Table3(recordOpts(300))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cv.Mean.Accuracy, "acc")
		b.ReportMetric(cv.Mean.MeanNLL, "nll")
		b.ReportMetric(cv.Mean.MacroF1(), "f1")
	}
}

// BenchmarkTable4Baselines regenerates Table IV: MAGIC vs the five baseline
// approaches on MSKCFG. Paper shape: GBT-with-features best (99.42%), MAGIC
// within a point (99.25%), Strand weakest (97.41%).
func BenchmarkTable4Baselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(recordOpts(300))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			name := metricName(r.Approach)
			b.ReportMetric(r.Accuracy, name+"_acc")
		}
	}
}

// BenchmarkTable5YANCFG regenerates Table V / Figure 10: MAGIC on the
// YANCFG-style corpus. Paper shape: nine of 13 classes F1 > 0.9; Ldpinch,
// Lmir, Rbot, Sdbot degrade (0.58–0.78).
func BenchmarkTable5YANCFG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cv, err := experiments.Table5(recordOpts(500))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cv.Mean.Accuracy, "acc")
		b.ReportMetric(cv.Mean.MeanNLL, "nll")
		if s, ok := cv.Mean.ScoreFor("Swizzor"); ok {
			b.ReportMetric(s.F1, "swizzor_f1")
		}
		if s, ok := cv.Mean.ScoreFor("Sdbot"); ok {
			b.ReportMetric(s.F1, "sdbot_f1")
		}
	}
}

// BenchmarkFig11ESVC regenerates Figure 11: per-family F1 improvement of
// MAGIC over the ESVC chained-SVM ensemble on YANCFG. Paper shape: MAGIC
// wins on 10 of 12 reported families, biggest gains on the small hard
// families.
func BenchmarkFig11ESVC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Figure11(recordOpts(500))
		if err != nil {
			b.Fatal(err)
		}
		wins, total := 0, 0
		meanImprove := 0.0
		for _, r := range rows {
			total++
			if r.AbsImprove >= 0 {
				wins++
			}
			meanImprove += r.AbsImprove
		}
		b.ReportMetric(float64(wins)/float64(total), "win_rate")
		b.ReportMetric(meanImprove/float64(total), "mean_f1_gain")
	}
}

// BenchmarkTable2HyperSearch regenerates the Table II sweep on the reduced
// grid, reporting the winning configuration's validation loss.
func BenchmarkTable2HyperSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts(120)
		opts.Epochs = 4
		res, err := experiments.Table2(opts, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Best.ValLoss, "best_val_loss")
		b.ReportMetric(res.Best.CV.Mean.Accuracy, "best_acc")
	}
}

// BenchmarkAblationHeads compares the paper's two extensions against the
// original DGCNN head under identical folds.
func BenchmarkAblationHeads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts(140)
		rows, err := experiments.AblateHeads(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Accuracy, metricName(r.Name)+"_acc")
		}
	}
}

// BenchmarkAblationAttributes compares Table I attribute subsets.
func BenchmarkAblationAttributes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts(140)
		rows, err := experiments.AblateAttributes(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Accuracy, metricName(r.Name)+"_acc")
		}
	}
}

// --- Section V-E execution-overhead micro-benchmarks ---

// BenchmarkACFGExtraction times the full front half of the pipeline on one
// synthetic program: parse → tag → build CFG → extract Table I attributes
// (the paper reports ~5.8 s per real malware instance on full-size
// binaries; our synthetic listings are smaller).
func BenchmarkACFGExtraction(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	text := malgen.GenerateProgram(rng, malgen.MSKProfileFor(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := asm.ParseString(text)
		if err != nil {
			b.Fatal(err)
		}
		a := acfg.FromCFG(cfg.Build(prog))
		if a.NumVertices() == 0 {
			b.Fatal("empty ACFG")
		}
	}
}

// BenchmarkTrainPerInstance times one training step (forward + backward)
// per sample — the paper reports 29.69 ms per instance.
func BenchmarkTrainPerInstance(b *testing.B) {
	d, err := malgen.MSKCFG(malgen.Options{TotalSamples: 60, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(d.NumClasses(), acfg.NumAttributes)
	m, err := core.NewModel(cfg, d.Sizes())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := d.Samples[i%d.Len()]
		logits := m.Forward(s.ACFG, true)
		_, _, dlogits := nn.SoftmaxNLL(logits, s.Label)
		m.Backward(dlogits)
	}
}

// BenchmarkTrainEpoch times one steady-state training epoch through the
// session API, one sub-benchmark per conv backend. A warm-up epoch before
// the timer sizes the replica workspace slab, so the measured
// iterations exercise the zero-allocation hot path; allocs/op is reported
// for every backend (the 0-alloc contract itself is pinned by tests with
// testing.AllocsPerRun).
func BenchmarkTrainEpoch(b *testing.B) {
	d, err := malgen.MSKCFG(malgen.Options{TotalSamples: 60, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, conv := range core.ConvBackendNames() {
		b.Run("conv="+conv, func(b *testing.B) {
			mcfg := core.DefaultConfig(d.NumClasses(), acfg.NumAttributes)
			mcfg.Conv = conv
			m, err := core.NewModel(mcfg, d.Sizes())
			if err != nil {
				b.Fatal(err)
			}
			sess, err := core.NewTrainSession(m.Weights, d, core.TrainOptions{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 2; i++ { // warm-up: the first epochs size the workspace slab
				if _, _, err := sess.RunEpoch(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sess.RunEpoch(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelTrain times full training epochs at several worker
// counts. Because the engine is bit-deterministic across worker counts, the
// sub-benchmarks do identical numeric work — the ratio of their ns/op is a
// pure measure of data-parallel scaling (on a single-core machine all
// worker counts cost the same). Model, replica and session construction
// grow with the worker count but are per-run, not per-epoch, work: the
// timer is stopped around them so they cannot pass for a scaling loss.
func BenchmarkParallelTrain(b *testing.B) {
	d, err := malgen.MSKCFG(malgen.Options{TotalSamples: 60, Seed: 2, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	mcfg := core.DefaultConfig(d.NumClasses(), acfg.NumAttributes)
	mcfg.Epochs = 2
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := core.NewModel(mcfg, d.Sizes())
				if err != nil {
					b.Fatal(err)
				}
				sess, err := core.NewTrainSession(m.Weights, d, core.TrainOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for e := 0; e < mcfg.Epochs; e++ {
					if _, _, err := sess.RunEpoch(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkPredictBatch times pooled batch inference at several worker
// counts on a kept engine, as a /v1/predict serving version runs it: the
// whole 60-sample set at one and four workers, and batches of two at two
// workers — the admission batcher's usual batch under concurrent callers on
// a two-core server, where each sample gets its own replica. Each
// sub-benchmark runs one untimed warm-up pass so the measured iterations
// exercise the steady-state serving path — built replicas, grown
// workspaces — rather than the one-time build, matching how
// BenchmarkTrainEpoch measures steady-state epochs.
func BenchmarkPredictBatch(b *testing.B) {
	d, err := malgen.MSKCFG(malgen.Options{TotalSamples: 60, Seed: 3, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	mcfg := core.DefaultConfig(d.NumClasses(), acfg.NumAttributes)
	m, err := core.NewModel(mcfg, d.Sizes())
	if err != nil {
		b.Fatal(err)
	}
	as := make([]*acfg.ACFG, d.Len())
	for i, s := range d.Samples {
		as[i] = s.ACFG
	}
	for _, c := range []struct {
		name           string
		workers, batch int
	}{{"workers1", 1, len(as)}, {"workers4", 4, len(as)}, {"workers2", 2, 2}} {
		b.Run(c.name, func(b *testing.B) {
			engine := core.NewParallelBatch(m.Weights, c.workers)
			batch := func(i int) []*acfg.ACFG {
				lo := i * c.batch % len(as)
				return as[lo : lo+c.batch]
			}
			for i := 0; i < len(as)/c.batch; i++ {
				if _, err := engine.Predict(batch(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Predict(batch(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictPerInstance times inference per sample — the paper
// reports 11.33 ms per instance.
func BenchmarkPredictPerInstance(b *testing.B) {
	d, err := malgen.MSKCFG(malgen.Options{TotalSamples: 60, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(d.NumClasses(), acfg.NumAttributes)
	m, err := core.NewModel(cfg, d.Sizes())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(d.Samples[i%d.Len()].ACFG)
	}
}

// BenchmarkPredictNeverSeenSizes is the serving-side cost of a graph size
// the replica has not met before. The model is warmed once on the largest
// graph; every timed iteration then predicts a different, smaller vertex
// count (the first 511 iterations never repeat one). With the workspace a
// bump arena sized by the largest graph, a new size is as warm as an old
// one: allocs/op is Predict's own 2 (the logits copy and the probability
// vector) and workspace-bytes — the slab the replica holds when the run
// ends — is the warm-up graph's scratch, whatever b.N was.
func BenchmarkPredictNeverSeenSizes(b *testing.B) {
	const largest = 512
	rng := rand.New(rand.NewSource(8))
	chain := func(n int) *acfg.ACFG {
		g := graph.NewDirected(n)
		for i := 0; i+1 < n; i++ {
			g.AddEdge(i, i+1)
		}
		a, err := acfg.New(g, tensor.Uniform(rng, n, acfg.NumAttributes, 0, 1))
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	graphs := make([]*acfg.ACFG, largest-1)
	for i, n := range rng.Perm(largest - 1) {
		graphs[i] = chain(n + 1)
	}
	m, err := core.NewModel(core.DefaultConfig(9, acfg.NumAttributes), nil)
	if err != nil {
		b.Fatal(err)
	}
	big := chain(largest)
	m.Predict(big)
	m.Predict(big) // the second pass consolidates the cold one's overflow chunks
	warm := m.WorkspaceStats().Bytes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(graphs[i%len(graphs)])
	}
	b.StopTimer()
	held := m.WorkspaceStats().Bytes
	if held != warm {
		b.Errorf("workspace went from %d to %d bytes over %d never-seen sizes, want flat", warm, held, b.N)
	}
	b.ReportMetric(float64(held), "workspace-bytes")
}

// BenchmarkRobustness measures accuracy degradation under metamorphic
// junk-insertion obfuscation of held-out samples (extension experiment; the
// structure-based classifier should degrade gracefully).
func BenchmarkRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ObfuscationRobustness(recordOpts(200), []float64{0, 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Accuracy, "clean_acc")
		b.ReportMetric(rows[len(rows)-1].Accuracy, "obf_acc")
	}
}

// BenchmarkWLKernelPredict documents the Section I motivation: a
// Weisfeiler-Lehman graph-kernel classifier's per-sample prediction cost
// grows with the training-set size (pairwise similarity against every
// stored graph), whereas MAGIC's inference (BenchmarkPredictPerInstance) is
// independent of it. Run both and compare ns/op as the corpus grows.
func BenchmarkWLKernelPredict(b *testing.B) {
	for _, trainSize := range []int{60, 240} {
		b.Run(fmt.Sprintf("train%d", trainSize), func(b *testing.B) {
			d, err := malgen.MSKCFG(malgen.Options{TotalSamples: trainSize, Seed: 4})
			if err != nil {
				b.Fatal(err)
			}
			wl := baseline.NewWLKernelKNN()
			if err := wl.Fit(d); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wl.Predict(d.Samples[i%d.Len()])
			}
		})
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkGraphConvForward times the stacked graph convolutions on a
// 100-vertex graph.
func BenchmarkGraphConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := graph.NewDirected(100)
	for i := 0; i+1 < 100; i++ {
		g.AddEdge(i, i+1)
	}
	for e := 0; e < 150; e++ {
		g.AddEdge(rng.Intn(100), rng.Intn(100))
	}
	csr := graph.NewCSR(g)
	stack := core.NewGraphConvStack(rng, acfg.NumAttributes, []int{32, 32, 32, 32})
	x := tensor.Uniform(rng, 100, acfg.NumAttributes, -1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stack.Forward(csr, x)
	}
}

// BenchmarkSortPooling times the WL-color sort on a 500×128 feature matrix.
func BenchmarkSortPooling(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	z := tensor.Uniform(rng, 500, 128, -1, 1)
	sp := core.NewSortPool(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Forward(z)
	}
}

// BenchmarkAMPHead times the fused Conv2D → ReLU → AdaptiveMaxPool2D layer
// that opens the AdaptiveMaxPooling head, at the shipped 16 channels and
// 10×8 grid on the 1×n×128 map the model feeds it (W = Σc = 4 × 32), with
// inputs in (−1, 1) as the tanh graph-conv stack emits them. n is the
// YANCFG median (46), the classify-asm-large listing mean (203) and its top
// listing band (420). It is the one layer of the default model whose cost
// grows with the vertex count. Beside it runs the head's second
// convolution, Conv2D(16→32, 3×3, same) on the pooled 16×gh×8 grid, at the
// grid heights Config.AMPGrid gives for PoolingRatio 0.2, 0.64 and 1.0: the
// same work whatever the graph's size, reported also per nominal
// multiply-add (OutC·oh·ow·InC·KH·KW, padding taps included).
func BenchmarkAMPHead(b *testing.B) {
	for _, h := range []int{46, 203, 420} {
		rng := rand.New(rand.NewSource(6))
		in := nn.NewVolume(1, h, 128)
		for i := range in.Data {
			in.Data[i] = math.Tanh(rng.NormFloat64())
		}
		dout := nn.NewVolume(16, 10, 8)
		for i := range dout.Data {
			dout.Data[i] = rng.NormFloat64()
		}
		layer := nn.NewConvAMP(rng, 16, 10, 8)
		ws := nn.NewWorkspace()
		layer.SetWorkspace(ws)
		for _, backward := range []bool{false, true} {
			name := fmt.Sprintf("h%d/forward", h)
			if backward {
				name += "+backward"
			}
			b.Run(name, func(b *testing.B) {
				step := func() {
					ws.Reset()
					layer.Forward(in, true)
					if backward {
						layer.Backward(dout)
					}
				}
				step() // warm-up: grow the workspace slab,
				step() // then consolidate it
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
	}
	for _, gh := range []int{3, 10, 16} {
		rng := rand.New(rand.NewSource(6))
		conv := nn.NewConv2D(rng, 16, 32, 3, 3, 1, 1)
		in := nn.NewVolume(16, gh, 8)
		for i := range in.Data {
			in.Data[i] = rng.Float64() // ReLU'd pooled maxima: ≥ 0
		}
		ws := nn.NewWorkspace()
		conv.SetWorkspace(ws)
		macs := float64(32 * gh * 8 * 16 * 9)
		b.Run(fmt.Sprintf("conv2d/h%d", gh), func(b *testing.B) {
			for warm := 0; warm < 2; warm++ { // grow the slab, then consolidate it
				ws.Reset()
				conv.Forward(in, false)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Reset()
				conv.Forward(in, false)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/macs, "ns/mac")
		})
	}
}

// BenchmarkMatMul times the dense kernel the whole model leans on.
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.Uniform(rng, 128, 128, -1, 1)
	y := tensor.Uniform(rng, 128, 128, -1, 1)
	dst := tensor.New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(dst, x, y)
	}
}

// BenchmarkSpMM times the CSR sparse-dense product that propagates vertex
// features along the augmented adjacency — one call per graph-conv layer
// per sample. The graph matches BenchmarkGraphConvForward's topology; the
// destination is preallocated so the measurement isolates the kernel.
func BenchmarkSpMM(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := graph.NewDirected(100)
	for i := 0; i+1 < 100; i++ {
		g.AddEdge(i, i+1)
	}
	for e := 0; e < 150; e++ {
		g.AddEdge(rng.Intn(100), rng.Intn(100))
	}
	csr := graph.NewCSR(g)
	x := tensor.Uniform(rng, 100, 32, -1, 1)
	dst := tensor.New(100, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csr.SpMMInto(dst, x)
	}
}

// metricName compresses an approach name into a bench-metric-safe token.
func metricName(s string) string {
	s = strings.ToLower(s)
	for _, cut := range []string{"(", "["} {
		if i := strings.Index(s, cut); i > 0 {
			s = s[:i]
		}
	}
	fields := strings.Fields(s)
	if len(fields) > 2 {
		fields = fields[:2]
	}
	return strings.Join(fields, "_")
}
