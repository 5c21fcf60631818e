package core

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/acfg"
	"repro/internal/dataset"
	"repro/internal/malgen"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestShardRangesCoverAndBalance(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for shards := 1; shards <= 12; shards++ {
			rs := shardRanges(n, shards)
			next := 0
			minSize, maxSize := 1<<30, 0
			for _, r := range rs {
				if r[0] != next {
					t.Fatalf("n=%d shards=%d: range starts at %d, want %d", n, shards, r[0], next)
				}
				size := r[1] - r[0]
				if size < minSize {
					minSize = size
				}
				if size > maxSize {
					maxSize = size
				}
				next = r[1]
			}
			if next != n {
				t.Fatalf("n=%d shards=%d: ranges cover %d items", n, shards, next)
			}
			if n > 0 && maxSize-minSize > 1 {
				t.Fatalf("n=%d shards=%d: unbalanced sizes [%d, %d]", n, shards, minSize, maxSize)
			}
		}
	}
}

// treeSum mirrors reduceShards' reduction tree on plain floats, as an
// independent reference for its exact (bitwise) result.
func treeSum(xs []float64) float64 {
	vals := append([]float64(nil), xs...)
	for stride := 1; stride < len(vals); stride *= 2 {
		for i := 0; i+stride < len(vals); i += 2 * stride {
			vals[i] += vals[i+stride]
		}
	}
	return vals[0]
}

func TestReduceShardsMatchesFixedTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 5, 7, 8} {
		params := []*nn.Param{nn.NewParam("w", tensor.New(3, 4))}
		shards := make([][]*tensor.Matrix, maxGradShards)
		contrib := make([][]float64, n)
		for s := range shards {
			shards[s] = []*tensor.Matrix{tensor.New(3, 4)}
			if s < n {
				// Wildly mixed magnitudes so any reordering of the
				// floating-point sum would change the result bitwise.
				for i := range shards[s][0].Data {
					shards[s][0].Data[i] = (rng.Float64() - 0.5) * float64(uint64(1)<<(8*uint(s%8)))
				}
				contrib[s] = append([]float64(nil), shards[s][0].Data...)
			}
		}
		reduceShards(params, shards, n)
		for i, got := range params[0].Grad.Data {
			per := make([]float64, n)
			for s := 0; s < n; s++ {
				per[s] = contrib[s][i]
			}
			if want := treeSum(per); got != want {
				t.Fatalf("n=%d elem %d: reduced %v, want tree sum %v", n, i, got, want)
			}
		}
	}
}

// determinismConfig is tinyConfig with dropout enabled: the golden test must
// prove that stochastic regularization — the hardest state to keep
// order-independent — is bit-identical across worker counts.
func determinismConfig() Config {
	cfg := tinyConfig(SortPooling, WeightedVerticesHead)
	cfg.DropoutRate = 0.2
	cfg.Epochs = 3
	cfg.Seed = 11
	return cfg
}

// trainOnce trains a fresh model on the corpus with the given worker count
// and returns the loss history plus the serialized final model.
func trainOnce(t *testing.T, train, val *dataset.Dataset, workers int) (*History, []byte) {
	t.Helper()
	cfg := determinismConfig()
	m, err := NewModel(cfg, train.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Train(m.Weights, train, val, TrainOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return hist, buf.Bytes()
}

// TestDeterminismAcrossWorkerCounts is the golden determinism contract: a
// fixed malgen corpus trained for 3 epochs must produce the SAME per-epoch
// training and validation losses (tolerance zero) and the same serialized
// parameters whether batches run on 1, 2, or 4 workers.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	corpus, err := malgen.MSKCFG(malgen.Options{TotalSamples: 24, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The 9-family corpus is too small per family for a stratified split;
	// relabel into two classes to exercise the full train/val path.
	two := dataset.New([]string{"even", "odd"})
	for i, s := range corpus.Samples {
		two.Add(&dataset.Sample{Name: s.Name, Label: i % 2, ACFG: s.ACFG})
	}
	train, val, err := two.TrainValSplit(0.25, 3)
	if err != nil {
		t.Fatal(err)
	}

	refHist, refBytes := trainOnce(t, train, val, 1)
	if len(refHist.TrainLoss) != determinismConfig().Epochs {
		t.Fatalf("reference run recorded %d epochs, want %d", len(refHist.TrainLoss), determinismConfig().Epochs)
	}
	for _, workers := range []int{2, 4} {
		hist, raw := trainOnce(t, train, val, workers)
		for e := range refHist.TrainLoss {
			if hist.TrainLoss[e] != refHist.TrainLoss[e] {
				t.Errorf("workers=%d epoch %d: train loss %.17g != serial %.17g",
					workers, e, hist.TrainLoss[e], refHist.TrainLoss[e])
			}
			if hist.ValLoss[e] != refHist.ValLoss[e] {
				t.Errorf("workers=%d epoch %d: val loss %.17g != serial %.17g",
					workers, e, hist.ValLoss[e], refHist.ValLoss[e])
			}
		}
		if !bytes.Equal(raw, refBytes) {
			t.Errorf("workers=%d: serialized model differs from the serial run", workers)
		}
	}
}

// TestPredictBatchMatchesSerialPredict pins the pooled inference paths — the
// one-shot Model.PredictBatch and a kept engine's Predict, which serves —
// to the single-replica path bit-for-bit, for every head and backend, at
// worker counts below, at and above the batch length, including batches of
// one and two, where one sample per shard puts each sample on its own
// replica.
func TestPredictBatchMatchesSerialPredict(t *testing.T) {
	forEachModel(t, func(t *testing.T, cfg Config) {
		rng := rand.New(rand.NewSource(21))
		d := twoClassDataset(rng, 5)
		cfg.Epochs = 2
		m, err := NewModel(cfg, d.Sizes())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Train(m.Weights, d, nil, TrainOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		as := acfgsOf(d)
		want := make([][]float64, len(as))
		for i, a := range as {
			want[i] = m.Predict(a)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			engine := NewParallelBatch(m.Weights, workers)
			for _, n := range []int{1, 2, 5, 9} {
				for _, p := range []struct {
					path    string
					predict func() ([][]float64, error)
				}{
					{"PredictBatch", func() ([][]float64, error) { return m.PredictBatch(as[:n], workers) }},
					{"ParallelBatch.Predict", func() ([][]float64, error) { return engine.Predict(as[:n]) }},
				} {
					batch, err := p.predict()
					if err != nil {
						t.Fatal(err)
					}
					for i := range batch {
						for c := range want[i] {
							if math.Float64bits(batch[i][c]) != math.Float64bits(want[i][c]) {
								t.Fatalf("workers=%d batch of %d, sample %d class %d: %s %v != Predict %v",
									workers, n, i, c, p.path, batch[i], want[i])
							}
						}
					}
				}
			}
			// A serving engine (one per retained version in the service)
			// never trains, so it must not own the eight parameter-sized
			// shard gradient sets a training engine needs.
			if engine.shardGrads != nil {
				t.Errorf("predict-only engine owns %d shard gradient buffer sets, want none", len(engine.shardGrads))
			}
		}
	})
}

// TestConcurrentPredictDuringTrain runs the service's serving pattern under
// the race detector: while one goroutine trains one Weights, others keep
// classifying against a second, published Weights, each through its own
// replica (a Model is one goroutine's) and the batch engine behind
// PredictBatch (predictions against the previous model keep serving during
// retraining; weights being optimized are never read concurrently).
func TestConcurrentPredictDuringTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := twoClassDataset(rng, 6)
	cfg := tinyConfig(SortPooling, WeightedVerticesHead)
	cfg.Epochs = 3

	published, err := NewModel(cfg, d.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	published.scaler = fitScaler(t, d)

	training, err := NewModel(cfg, d.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := Train(training.Weights, d, nil, TrainOptions{Workers: 4})
		done <- err
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			replica := published.NewReplica()
			for i := 0; i < 20; i++ {
				s := d.Samples[(g*7+i)%d.Len()]
				probs, err := replica.PredictBatch([]*acfg.ACFG{s.ACFG}, 2)
				if err != nil {
					t.Error(err)
					return
				}
				if len(probs) != 1 || len(probs[0]) != cfg.Classes {
					t.Errorf("got %v, want one vector of %d probabilities", probs, cfg.Classes)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("train: %v", err)
	}
}

// TestWorkerPoolShutdownOnError poisons one sample of a batch (attribute
// width the layers cannot consume) and checks that the pool shuts down with
// an error instead of deadlocking, and that the engine remains usable: the
// failed shard's partial gradients must not leak into the next batch, and
// the trainer's gradients are left as they were.
func TestWorkerPoolShutdownOnError(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cfg := tinyConfig(SortPooling, WeightedVerticesHead)
	m, err := NewModel(cfg, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	engine := NewParallelBatch(m.Weights, 4)
	grads := make([]*nn.Param, len(m.values))
	for i, v := range m.values {
		grads[i] = nn.NewParam("", v)
	}

	makeTasks := func(poison int) []sampleTask {
		tasks := make([]sampleTask, 8)
		for i := range tasks {
			a := randomACFG(rng, i%2)
			if i == poison {
				// Bypass acfg.New's validation to emulate a corrupt sample.
				a = &acfg.ACFG{Graph: a.Graph, Attrs: tensor.New(a.Graph.N(), 3)}
			}
			tasks[i] = sampleTask{a: a, label: i % 2, seed: int64(i)}
		}
		return tasks
	}

	results := make([]sampleResult, 8)
	errc := make(chan error, 1)
	go func() { errc <- engine.TrainBatch(grads, makeTasks(5), results) }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("poisoned batch trained without error")
		}
		if !strings.Contains(err.Error(), "shard") {
			t.Fatalf("error %q does not identify the failing shard", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker pool deadlocked on poisoned batch")
	}
	params := grads
	for _, rep := range engine.replicas {
		params = append(params, rep.params...)
	}
	for _, p := range params {
		for _, g := range p.Grad.Data {
			if g != 0 {
				t.Fatal("failed batch left nonzero gradients behind")
			}
		}
	}

	if err := engine.TrainBatch(grads, makeTasks(-1), results); err != nil {
		t.Fatalf("engine unusable after failed batch: %v", err)
	}
}

// TestParallelSpeedup checks the ≥2× scaling claim for workers=4. It needs
// real cores to mean anything, so it skips on small machines (CI enforces
// determinism; scaling is demonstrated where the hardware exists).
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need ≥4 CPUs for a meaningful scaling measurement, have %d", runtime.GOMAXPROCS(0))
	}
	rng := rand.New(rand.NewSource(51))
	d := twoClassDataset(rng, 40)
	cfg := tinyConfig(SortPooling, WeightedVerticesHead)
	cfg.Epochs = 4
	cfg.ConvSizes = []int{32, 32, 32}
	cfg.HiddenUnits = 64
	cfg.BatchSize = 16

	timeRun := func(workers int) time.Duration {
		m, err := NewModel(cfg, d.Sizes())
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := Train(m.Weights, d, nil, TrainOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	timeRun(1) // warm-up
	serial := timeRun(1)
	parallel := timeRun(4)
	t.Logf("workers=1 %v, workers=4 %v (%.2fx)", serial, parallel, float64(serial)/float64(parallel))
	if float64(parallel) > float64(serial)/2 {
		t.Errorf("workers=4 took %v, want ≤ half of workers=1 (%v)", parallel, serial)
	}
}
