package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/acfg"
	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/tensor"
)

// kernelWidth is the channel width of the kernels the walk times alone: the
// default model's graph-convolution layers are 32 wide.
const kernelWidth = 32

// batchWalk is the batch PredictBatch is timed on: the admission queue's
// default maximum, which the generator's few clients never form.
const batchWalk = 32

// stage collects one layer function's cost over the walk's inputs.
type stage struct {
	us     []float64
	allocs []float64
}

// walker times single calls on one goroutine, with the allocation count of
// each call from the runtime's own statistics.
type walker struct {
	stages map[string]*stage
}

// time runs fn once and records its duration and allocation count under
// name; a failed call is returned, not recorded.
func (w *walker) time(name string, fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return fmt.Errorf("stage walk: %s: %w", name, err)
	}
	st := w.stages[name]
	if st == nil {
		st = &stage{}
		w.stages[name] = st
	}
	st.us = append(st.us, float64(d)/1e3)
	st.allocs = append(st.allocs, float64(after.Mallocs-before.Mallocs))
	return nil
}

func (w *walker) us(name string) float64 {
	if st := w.stages[name]; st != nil {
		return median(st.us)
	}
	return 0
}

func (w *walker) allocs(name string) float64 {
	if st := w.stages[name]; st != nil {
		return median(st.allocs)
	}
	return 0
}

// wireBody is the request shape the servers decode.
type wireBody struct {
	Family string     `json:"family,omitempty"`
	ASM    string     `json:"asm,omitempty"`
	ACFG   *acfg.ACFG `json:"acfg,omitempty"`
	Name   string     `json:"name,omitempty"`
}

// requestPath lists the stages one request passes through in order; their
// medians sum to the walk total the shares are taken of. hashed adds the
// content hash, which only the gateway and the ingest path compute.
func requestPath(hashed bool) []string {
	path := []string{"service.json_decode", "asm.parse", "cfg.build", "acfg.from_cfg"}
	if hashed {
		path = append(path, "acfg.content_hash")
	}
	return append(path, "core.predict", "service.json_encode")
}

// stageWalk sends the workload's own inputs one at a time, on this
// goroutine, through each layer's public functions, and fills the
// per-stage metrics. It runs after the loaded windows, servers idle.
func stageWalk(b *bench, inputs []input, families []string, modelCfg core.Config, hashed bool) error {
	n := min(b.cfg.sizes.walk, len(inputs))
	pool := inputs[:min(b.cfg.sizes.storeRecords, len(inputs))]
	inputs = inputs[:n]
	w := &walker{stages: make(map[string]*stage)}
	model, err := core.NewModel(modelCfg, nil)
	if err != nil {
		return err
	}
	trainee, err := core.NewModel(modelCfg, nil) // private: Backward accumulates gradients
	if err != nil {
		return err
	}
	// An untimed pass first: the models keep scratch buffers per graph size,
	// and the servers' steady state — every size seen — is what the windows
	// measured. The training calls are the dearest, so fewer inputs take them.
	nTrain := max(n/4, 1)
	var dlogits []float64
	forward := func(a *acfg.ACFG, label int) func() error {
		return func() error {
			_, _, dlogits = nn.SoftmaxNLL(trainee.Forward(a, true), label)
			return nil
		}
	}
	backward := func() error { trainee.Backward(dlogits); return nil }
	for i, in := range inputs {
		_ = model.Predict(in.graph)
		if i < nTrain {
			_ = forward(in.graph, in.label)()
			_ = backward()
		}
	}
	for i := range inputs {
		if err := walkOne(w, &inputs[i], families, model); err != nil {
			return err
		}
		if i < nTrain {
			if err := w.time("core.forward_train", forward(inputs[i].graph, inputs[i].label)); err != nil {
				return err
			}
			if err := w.time("core.backward", backward); err != nil {
				return err
			}
		}
	}

	// The dense kernel at the workload's median graph size.
	sizes := make([]float64, n)
	for i, in := range inputs {
		sizes[i] = float64(in.graph.NumVertices())
	}
	v := max(int(median(sizes)), 1)
	x, wgt, dst := tensor.New(v, kernelWidth), tensor.New(kernelWidth, kernelWidth), tensor.New(v, kernelWidth)
	x.Fill(1)
	wgt.Fill(0.5)
	for i := 0; i < n; i++ {
		_ = w.time("tensor.matmul", func() error { tensor.MatMulInto(dst, x, wgt); return nil })
	}

	// One full admission batch through the data-parallel engine; the first
	// calls build the replica pool and grow its scratch, and are not timed.
	batch := make([]*acfg.ACFG, batchWalk)
	for i := range batch {
		batch[i] = inputs[i%n].graph
	}
	predictBatch := func() error {
		_, err := model.PredictBatch(batch, runtime.GOMAXPROCS(0))
		return err
	}
	for i := 0; i < 3; i++ {
		if err := predictBatch(); err != nil {
			return fmt.Errorf("stage walk: predict batch: %w", err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := w.time("core.predict_batch", predictBatch); err != nil {
			return err
		}
	}

	store, err := storeWalk(b, w, pool, families)
	if err != nil {
		return err
	}

	out := b.out
	for _, name := range []string{"service.json_decode", "asm.parse", "cfg.build", "acfg.from_cfg", "core.predict"} {
		out[name+".us"] = w.us(name)
		out[name+".allocs"] = w.allocs(name)
	}
	for _, name := range []string{"service.json_encode", "acfg.content_hash", "graph.csr_build", "graph.spmm",
		"tensor.matmul", "core.forward_train", "core.backward", "service.wal_append"} {
		out[name+".us"] = w.us(name)
	}
	out["core.predict_batch32.us_per_sample"] = w.us("core.predict_batch") / batchWalk
	out["corpus.segment_write.us_per_record"] = store.segmentWrite
	out["corpus.segment_iterate.us_per_record"] = store.segmentIterate
	out["service.replay_wal.us_per_sample"] = store.replayWAL

	// The table: median, allocations and share of the request path.
	path := requestPath(hashed)
	total := 0.0
	for _, name := range path {
		total += w.us(name)
	}
	fmt.Printf("# stage walk over %d inputs (median graph %d vertices), one goroutine:\n", n, v)
	fmt.Printf("# %-24s %12s %10s %8s\n", "stage", "median us", "allocs/op", "share")
	share := 0.0
	for _, name := range path {
		pct := 100 * w.us(name) / total
		share += pct
		fmt.Printf("# %-24s %12.1f %10.0f %7.1f%%\n", name, w.us(name), w.allocs(name), pct)
	}
	fmt.Printf("# %-24s %12.1f %10s %7.1f%%\n", "request path total", total, "", share)
	for _, name := range []string{"graph.csr_build", "graph.spmm", "tensor.matmul"} {
		fmt.Printf("# %-24s %12.1f %10.0f  (inside core.predict)\n", name, w.us(name), w.allocs(name))
	}
	if handler := out["service.handler.p50_us"]; handler > 0 {
		out["service.queue_wait.p50_us"] = handler - total
		if hashed {
			out["service.queue_wait.p50_us"] += w.us("acfg.content_hash") // the backend's predict path does not hash
		}
	}
	return nil
}

// walkOne takes one input through the request path's stages, as the
// servers would: decode, extract (listings only), hash, predict, encode.
func walkOne(w *walker, in *input, families []string, model *core.Model) error {
	body := in.body(nil, "walk")
	var wire wireBody
	if err := w.time("service.json_decode", func() error { return json.Unmarshal(body, &wire) }); err != nil {
		return err
	}
	a := wire.ACFG
	if in.asm != "" {
		var prog *asm.Program
		if err := w.time("asm.parse", func() (err error) { prog, err = asm.ParseString(wire.ASM); return err }); err != nil {
			return err
		}
		var c *cfg.CFG
		if err := w.time("cfg.build", func() error { c = cfg.Build(prog); return c.Validate() }); err != nil {
			return err
		}
		_ = w.time("acfg.from_cfg", func() error { a = acfg.FromCFG(c); return nil })
	}
	_ = w.time("acfg.content_hash", func() error { _ = a.ContentHash(); return nil })

	var csr *graph.CSR
	_ = w.time("graph.csr_build", func() error { csr = graph.NewCSR(a.Graph); return nil })
	if v := a.NumVertices(); v > 0 {
		x, dst := tensor.New(v, kernelWidth), tensor.New(v, kernelWidth)
		x.Fill(1)
		_ = w.time("graph.spmm", func() error { csr.SpMMInto(dst, x); return nil })
	}

	var probs []float64
	_ = w.time("core.predict", func() error { probs = model.Predict(a); return nil })
	res := service.PredictResult{Blocks: a.NumVertices(), ModelVersion: "v000001"}
	for c, p := range probs {
		res.Predictions = append(res.Predictions, service.Prediction{Family: families[c], Probability: p})
	}
	sort.SliceStable(res.Predictions, func(i, j int) bool {
		return res.Predictions[i].Probability > res.Predictions[j].Probability
	})
	res.Family = res.Predictions[0].Family
	return w.time("service.json_encode", func() error { _, err := json.Marshal(res); return err })
}

// storeCosts are the walk's per-record costs of the durable tiers.
type storeCosts struct {
	segmentWrite   float64
	segmentIterate float64
	replayWAL      float64
}

// storeWalk times the corpus store's public functions on the workload's
// graphs, in scratch directories: single durable WAL appends (one fsync
// each, so only the walk's share of inputs takes them), a segment write and
// read-back of storeRecords records, and boot replay of a WAL-only directory
// holding every one of inputs, which are at most storeRecords.
func storeWalk(b *bench, w *walker, inputs []input, families []string) (costs storeCosts, err error) {
	dir, err := b.tempDir("walk-")
	if err != nil {
		return costs, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()
	records := make([]*corpus.Record, len(inputs))
	data := dataset.New(families)
	for i, in := range inputs {
		name := fmt.Sprintf("walk-%04d", i)
		records[i] = &corpus.Record{Family: families[in.label], Name: name, Hash: in.graph.ContentHash(), ACFG: in.graph}
		data.Add(&dataset.Sample{Name: name, Label: in.label, ACFG: in.graph})
	}

	walDir, segDir, replayDir := dir+"/wal", dir+"/seg", dir+"/replay"
	st, err := service.OpenStore(walDir)
	if err != nil {
		return costs, err
	}
	for _, r := range records[:min(b.cfg.sizes.walk, len(records))] {
		err = w.time("service.wal_append", func() error { return st.AppendSample(r.Family, r.Name, r.Hash, r.ACFG) })
		if err != nil {
			break
		}
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return costs, err
	}

	// A workload with fewer graphs than storeRecords writes some twice: the
	// segment writer frames what it is given and knows nothing of duplicates,
	// so a repeat costs what a new record does.
	if err := os.MkdirAll(segDir, 0o755); err != nil {
		return costs, err
	}
	nRecords := b.cfg.sizes.storeRecords
	t0 := time.Now()
	sw, err := corpus.NewWriter(segDir, 1)
	if err != nil {
		return costs, err
	}
	for i := 0; i < nRecords; i++ {
		if err := sw.Append(records[i%len(records)]); err != nil {
			sw.Abort()
			return costs, err
		}
	}
	segPath, err := sw.Commit()
	if err != nil {
		return costs, err
	}
	costs.segmentWrite = float64(time.Since(t0)) / 1e3 / float64(nRecords)

	seg, err := corpus.OpenSegment(segPath)
	if err != nil {
		return costs, err
	}
	t0 = time.Now()
	err = seg.Iterate(func(int, *corpus.Record) error { return nil })
	costs.segmentIterate = float64(time.Since(t0)) / 1e3 / float64(nRecords)
	if cerr := seg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return costs, fmt.Errorf("stage walk: segment iterate: %w", err)
	}

	if err := importWAL(replayDir, families, data); err != nil {
		return costs, err
	}
	if st, err = service.OpenStore(replayDir); err != nil {
		return costs, err
	}
	t0 = time.Now()
	_, walN, err := st.Replay(func(*corpus.Record, bool) error { return nil })
	elapsed := time.Since(t0)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return costs, fmt.Errorf("stage walk: replay: %w", err)
	}
	if walN != len(records) {
		return costs, fmt.Errorf("stage walk: replayed %d WAL records, wrote %d", walN, len(records))
	}
	costs.replayWAL = float64(elapsed) / 1e3 / float64(walN)
	return costs, nil
}

// importWAL fills a fresh state directory the way a server does, one group
// commit through ImportCorpus, and closes it: a WAL-only directory for a
// boot to replay.
func importWAL(dir string, families []string, data *dataset.Dataset) (err error) {
	srv, err := service.NewWithRegistry(families, core.DefaultConfig(len(families), acfg.NumAttributes), obs.NewRegistry())
	if err != nil {
		return err
	}
	defer func() {
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
	}()
	st, err := service.OpenStore(dir)
	if err != nil {
		return err
	}
	if _, _, err := srv.AttachStore(st); err != nil {
		_ = st.Close() // never attached, so the server will not close it
		return err
	}
	return srv.ImportCorpus(data)
}
