package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acfg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/malgen"
	"repro/internal/obs"
	"repro/internal/service"
)

const routeSamples = "/v1/samples"

// compactBytes is magic-server's default -compact-bytes. The default lives
// in the command's flag set, not in a package constant, so it is repeated
// here: a change to the shipped default must be repeated too.
const compactBytes = 4 << 20

// repeatShare is the part of the uploads that carry the graph of a sample
// uploaded earlier in the same run, under a new name: the ingest dedup path.
const repeatShare = 0.1

// serveShare is the part of the run's window the timed serving loop gets;
// the training job, the uploads and the restart before it are fixed amounts
// of work, sized to take about the other half.
const serveShare = 0.5

// accuracyFloor is the least held-out accuracy a full-size run accepts. Two
// epochs over 1200 samples scored 0.41 to 0.57 on thirty seeds (an
// untrained model scores about 1/13). Training is deterministic, so the
// same seed gives the same accuracy to the last digit: service.accuracy of
// two commits on one seed compares exactly, and this floor only catches what
// such a comparison was not there to see.
const accuracyFloor = 0.35

// trainPoll is how often the operator polls the training job.
const trainPoll = 10 * time.Millisecond

// lifecycle is the booted operator workload.
type lifecycle struct {
	families []string
	modelCfg core.Config
	corpus   *dataset.Dataset
	pool     []input // new labelled samples, each uploaded at least once
	order    []int   // upload schedule: pool indices, repeatShare of the slots repeats
	heldOut  []input
	stateDir string

	srv *service.Server
	reg *obs.Registry
	ln  *listener

	dedups atomic.Int64 // acknowledgements that said "deduplicated"

	mu      sync.Mutex
	answers map[int][]byte // held-out index → first predict body
}

// setupLifecycle generates the corpus, the upload schedule and the held-out
// set from the seed, boots a durable server on a fresh state directory and
// imports the corpus in generator order (corpus order decides the seeded
// train/validation split, so training precedes the racing uploads).
func setupLifecycle(b *bench) (*lifecycle, error) {
	sz := b.cfg.sizes
	lc := &lifecycle{families: malgen.YANCFGFamilies(), answers: make(map[int][]byte)}
	lc.modelCfg = core.DefaultConfig(len(lc.families), acfg.NumAttributes)
	var err error
	if lc.corpus, err = malgen.YANCFG(malgen.Options{TotalSamples: sz.trainCorpus, Seed: b.rng(1).Int63()}); err != nil {
		return nil, err
	}
	// The upload schedule: each slot is the next new sample or, with
	// probability repeatShare, a sample some earlier slot already holds.
	draw := b.rng(4)
	fresh := 0
	for len(lc.order) < sz.uploads {
		if fresh > 0 && draw.Float64() < repeatShare {
			lc.order = append(lc.order, lc.order[draw.Intn(len(lc.order))])
			continue
		}
		lc.order = append(lc.order, fresh)
		fresh++
	}
	if lc.pool, err = acfgInputs(b.rng(2), fresh, anyClass, true); err != nil {
		return nil, err
	}
	if lc.heldOut, err = acfgInputs(b.rng(3), sz.heldOut, anyClass, true); err != nil {
		return nil, err
	}
	if lc.stateDir, err = b.tempDir("state-"); err != nil {
		return nil, err
	}
	if _, err := lc.boot(b); err != nil {
		return nil, lc.closeAfter(err)
	}
	if err := lc.srv.ImportCorpus(lc.corpus); err != nil {
		return nil, lc.closeAfter(err)
	}
	return lc, nil
}

func (lc *lifecycle) closeAfter(err error) error {
	_ = lc.close() // the set-up error is the one to report
	return err
}

// boot opens the state directory the way magic-server does with -state-dir
// and its other flags at their defaults, and serves it. It returns the
// number of samples replayed from the directory.
func (lc *lifecycle) boot(b *bench) (replayed int, err error) {
	lc.reg = obs.NewRegistry()
	if lc.srv, err = service.NewWithRegistry(lc.families, lc.modelCfg, lc.reg); err != nil {
		return 0, err
	}
	st, err := service.OpenStore(lc.stateDir)
	if err != nil {
		return 0, err
	}
	if replayed, _, err = lc.srv.AttachStore(st); err != nil {
		_ = st.Close() // never attached, so the server will not close it
		return 0, err
	}
	lc.srv.EnableCompaction(compactBytes, nil)
	lc.ln, err = listen(b.rec.wrap(spanService, spanClient, lc.srv.Handler()))
	return replayed, err
}

// shutdown drains the listener and closes the server (final checkpoint,
// store released), like magic-server on SIGTERM.
func (lc *lifecycle) shutdown() error {
	var first error
	if lc.ln != nil {
		first = lc.ln.close()
		lc.ln = nil
	}
	if lc.srv != nil {
		if err := lc.srv.Close(); err != nil && first == nil {
			first = err
		}
		lc.srv = nil
	}
	return first
}

func (lc *lifecycle) close() error {
	first := lc.shutdown()
	if lc.stateDir != "" {
		if err := os.RemoveAll(lc.stateDir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// train submits one full training job over the imported corpus and polls it
// to its end, as an operator would. It is one operation: failed unless the
// job ends succeeded.
func (lc *lifecycle) train(b *bench) error {
	epochs := b.cfg.sizes.trainEpochs
	client := service.NewClient(lc.ln.url)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	before, err := scrapeAll([]*obs.Registry{lc.reg, obs.Default()})
	if err != nil {
		return err
	}
	b.attempted++
	start := time.Now()
	st, err := client.StartTrain(ctx, epochs, 0.1)
	if err != nil {
		b.failed++
		b.problemf("train: %v", err)
		return nil
	}
	// Epoch ends as the operator sees them: the first poll that reports a
	// higher epoch count.
	var epochEnds []time.Time
	for !st.Terminal() {
		time.Sleep(trainPoll)
		if st, err = client.TrainStatus(ctx, st.Job); err != nil {
			b.failed++
			b.problemf("train: poll: %v", err)
			return nil
		}
		for len(epochEnds) < st.Epoch {
			epochEnds = append(epochEnds, time.Now())
		}
	}
	wall := time.Since(start)
	if st.Status != service.JobSucceeded {
		b.failed++
		b.problemf("train: job %s ended %s: %s", st.Job, st.Status, st.Error)
		return nil
	}
	after, err := scrapeAll([]*obs.Registry{lc.reg, obs.Default()})
	if err != nil {
		return err
	}
	samples := lc.corpus.Len()
	b.out["service.train_samples_per_s"] = float64(samples*epochs) / wall.Seconds()

	var perEpoch []float64
	prev := start
	for _, end := range epochEnds {
		perEpoch = append(perEpoch, end.Sub(prev).Seconds())
		prev = end
	}
	b.out["core.epoch.p50_s"] = median(perEpoch)
	// The server's own epoch timer against the polled one: the polled sum
	// also holds the job's set-up, so it may only be the larger.
	epochMean, n := histMean(before[0], after[0], "magic_train_epoch_duration_seconds", "")
	serverEpochs := epochMean * n
	if int(n) != epochs {
		b.problemf("train: /metrics timed %.0f epochs, job ran %d", n, epochs)
	}
	if polled := prev.Sub(start).Seconds(); polled < serverEpochs {
		b.problemf("train: polled epochs took %.3fs, server's epoch timer says %.3fs", polled, serverEpochs)
	}
	b.out["service.train_job_overhead.s"] = wall.Seconds() - serverEpochs
	busy := delta(before[1], after[1], `magic_parallel_worker_busy_seconds_total{phase="train"}`)
	if workers := after[1][`magic_parallel_workers{phase="train"}`]; workers > 0 {
		b.out["core.parallel.busy_ratio"] = busy / (wall.Seconds() * workers)
	}
	fmt.Printf("# train: %d samples × %d epochs in %.2fs (epochs %.2fs by the server's timer)\n", samples, epochs, wall.Seconds(), serverEpochs)
	return nil
}

// checkUpload wants 201 and a well-formed acknowledgement.
func (lc *lifecycle) checkUpload(idx int, r reply) error {
	if r.status != http.StatusCreated {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	var ack struct {
		Name         string `json:"name"`
		Samples      int    `json:"samples"`
		Deduplicated bool   `json:"deduplicated"`
	}
	if err := json.Unmarshal(r.body, &ack); err != nil {
		return fmt.Errorf("malformed acknowledgement: %w", err)
	}
	if ack.Name == "" || ack.Samples < lc.corpus.Len() {
		return fmt.Errorf("acknowledgement %s names no sample or a corpus smaller than the import", bytes.TrimSpace(r.body))
	}
	if ack.Deduplicated {
		lc.dedups.Add(1)
	}
	return nil
}

// ingest uploads the whole schedule, a fixed amount of work, so the corpus
// the restart must bring back is the same for a seed whatever the disk
// does. In a traced run the second half is uploaded with the recorder on.
// It returns the spans of that half.
func (lc *lifecycle) ingest(b *bench) ([]span, error) {
	before, err := scrape(lc.reg)
	if err != nil {
		return nil, err
	}
	// slots returns a next over n schedule slots starting at from.
	slots := func(from, n int) func(int, int) (*input, int, bool) {
		return firstN(n, func(_, i int) (*input, int, bool) {
			idx := lc.order[from+i]
			return &lc.pool[idx], idx, true
		})
	}
	untraced := len(lc.order)
	if b.cfg.trace {
		untraced /= 2
	}
	l := &load{
		clients: generatorClients(), duration: 150 * time.Second, url: lc.ln.url, route: routeSamples, okStatus: http.StatusCreated,
		next: slots(0, untraced), check: lc.checkUpload, rec: b.rec, ids: &b.ids,
	}
	w := l.run()
	b.count(w)
	after, err := l.settle(before, w, []*obs.Registry{lc.reg})
	if err != nil {
		return nil, err
	}
	b.crossCheck("server", w, before, after[0], routeSamples, http.StatusCreated)
	b.out["service.ingest_rps"] = w.throughput()
	fmt.Printf("# ingest: %d uploads in %.2fs, p50 %.3f ms\n", w.attempted, w.elapsed.Seconds(), percentile(w.latencies, 50))
	if !b.cfg.trace {
		return nil, nil
	}
	l.next = slots(untraced, len(lc.order)-untraced)
	b.rec.on.Store(true)
	traced := l.run()
	b.rec.on.Store(false)
	b.count(traced)
	return b.rec.take(), nil
}

// restart closes the server and boots a new one on the same directory, then
// checks that exactly the imported and the distinct uploaded samples came
// back and that the dedup counter saw exactly the repeats.
func (lc *lifecycle) restart(b *bench) error {
	counters, err := scrape(lc.reg)
	if err != nil {
		return err
	}
	distinct, repeats := len(lc.pool), len(lc.order)-len(lc.pool)
	b.out["service.dedup.count"] = counters["magic_corpus_deduplicated_total"]
	b.out["service.compactions.count"] = counters[`magic_corpus_compactions_total{outcome="ok"}`]
	if failed := counters[`magic_corpus_compactions_total{outcome="error"}`]; failed > 0 {
		b.problemf("restart: %.0f compactions failed", failed)
	}
	if got := int(counters["magic_corpus_deduplicated_total"]); got != repeats || int(lc.dedups.Load()) != repeats {
		b.problemf("dedup: %d repeats uploaded, server counted %d, %d answers said deduplicated", repeats, got, lc.dedups.Load())
	}

	if err := lc.shutdown(); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	t0 := time.Now()
	replayed, err := lc.boot(b)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	b.out["service.restart.ms"] = float64(time.Since(t0)) / 1e6

	want := lc.corpus.Len() + distinct
	b.attempted++
	health, err := service.NewClient(lc.ln.url).HealthInfo()
	switch {
	case err != nil:
		b.failed++
		b.problemf("restart: healthz: %v", err)
	case health.CorpusSamples != want || replayed != want:
		b.failed++
		b.problemf("restart: %d imported + %d distinct uploads = %d samples, replay found %d and /healthz says %d",
			lc.corpus.Len(), distinct, want, replayed, health.CorpusSamples)
	case health.ModelVersion == "":
		b.failed++
		b.problemf("restart: no model checkpoint came back")
	}
	fmt.Printf("# restart: %d samples replayed (%d imported, %d distinct of %d uploads), %.0f compactions\n",
		replayed, lc.corpus.Len(), distinct, len(lc.order), b.out["service.compactions.count"])
	return nil
}

// checkHeldOut keeps the first answer per held-out graph and wants every
// later one byte-identical.
func (lc *lifecycle) checkHeldOut(idx int, r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	first, seen := lc.answers[idx]
	if !seen {
		lc.answers[idx] = r.body
		return nil
	}
	if !bytes.Equal(first, r.body) {
		return fmt.Errorf("answer differs from the first one for this graph:\n first %s\n now   %s", first, r.body)
	}
	return nil
}

// serve is the workload's timed part: callers classify the held-out graphs
// against the restarted server — the model that was trained over HTTP,
// checkpointed, and loaded back. One untimed pass over the set comes first;
// it warms the new server up and its answers give the accuracy.
func (lc *lifecycle) serve(b *bench) (*measured, error) {
	l := &load{
		clients: generatorClients(), duration: requestTimeout, url: lc.ln.url, route: routePredict, okStatus: http.StatusOK,
		next:  firstN(len(lc.heldOut), func(_, i int) (*input, int, bool) { return &lc.heldOut[i], i, true }),
		check: lc.checkHeldOut, ids: &b.ids,
	}
	pass := l.run()
	b.count(pass)
	if err := lc.score(b); err != nil {
		return nil, err
	}
	var cycle atomic.Int64
	l.next = func(int, int) (*input, int, bool) {
		i := int(cycle.Add(1)-1) % len(lc.heldOut)
		return &lc.heldOut[i], i, true
	}
	m, err := b.drive(l, time.Duration(float64(b.timed())*serveShare), lc.reg)
	if err != nil {
		return nil, err
	}
	b.crossCheck("server", m.plain, m.before[0], m.after[0], routePredict, http.StatusOK)
	return m, nil
}

// score checks the held-out answers against the checkpoint loaded back from
// the state directory, within probTolerance, and reports the share whose
// top family is the generator's label as the accuracy.
func (lc *lifecycle) score(b *bench) error {
	ref, err := core.LoadFile(filepath.Join(lc.stateDir, "model.json"))
	if err != nil {
		return fmt.Errorf("held-out: load checkpoint: %w", err)
	}
	right := 0
	for idx, body := range lc.answers {
		in := &lc.heldOut[idx]
		var res service.PredictResult
		err := json.Unmarshal(body, &res)
		if err == nil {
			err = checkPrediction(&res, lc.families, in.graph, ref.Predict(in.graph))
		}
		if err != nil {
			b.failed++
			b.problemf("held-out %d: %v", idx, err)
			continue
		}
		if res.Family == in.family {
			right++
		}
	}
	accuracy := float64(right) / float64(len(lc.heldOut))
	b.out["service.accuracy"] = accuracy
	if !b.cfg.smoke && (accuracy < accuracyFloor || math.IsNaN(accuracy)) {
		b.problemf("held-out: accuracy %.3f below %.2f: training, the checkpoint or the restart lost what the job learnt", accuracy, accuracyFloor)
	}
	fmt.Printf("# held-out: %d of %d right\n", right, len(lc.heldOut))
	return nil
}

// layers turns the traced uploads and the traced serving window into the
// per-layer metrics of the operator path.
func (lc *lifecycle) layers(b *bench, m *measured, uploads []span) {
	out := b.out
	out["service.ingest_handler.p50_us"] = median(durations(uploads, func(s span) bool { return s.Name == spanService }))
	out["client.overhead.p50_us"] = median(clientOverhead(m.spans, spanService, routePredict))
	out["service.handler.p50_us"] = median(durations(m.spans, func(s span) bool { return s.Name == spanService }))
	if size, n := histMean(m.tBefore[0], m.tAfter[0], "magic_predict_batch_size", ""); n > 0 {
		out["service.batch_size.mean"] = size
	}
	m.processLayers(out)
}
