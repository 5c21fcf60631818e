package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/acfg"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// randomACFG builds a random graph with attribute statistics shifted by
// class so the classes are learnable: class 0 graphs are sparse chains with
// mov-heavy blocks, class 1 graphs are loopy with arithmetic-heavy blocks.
func randomACFG(rng *rand.Rand, class int) *acfg.ACFG {
	n := 6 + rng.Intn(12)
	g := graph.NewDirected(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	if class == 1 {
		for e := 0; e < n; e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
	}
	attrs := tensor.New(n, acfg.NumAttributes)
	for i := 0; i < n; i++ {
		row := attrs.Row(i)
		total := 3 + rng.Intn(10)
		row[acfg.AttrTotalInstructions] = float64(total)
		row[acfg.AttrInstructionsInVertex] = float64(total)
		row[acfg.AttrOffspring] = float64(g.OutDegree(i))
		if class == 0 {
			row[acfg.AttrMov] = float64(total) * 0.7
			row[acfg.AttrArithmetic] = float64(total) * 0.1
		} else {
			row[acfg.AttrMov] = float64(total) * 0.1
			row[acfg.AttrArithmetic] = float64(total) * 0.7
		}
		row[acfg.AttrNumericConstants] = float64(rng.Intn(4))
	}
	a, err := acfg.New(g, attrs)
	if err != nil {
		panic(err)
	}
	return a
}

func twoClassDataset(rng *rand.Rand, perClass int) *dataset.Dataset {
	d := dataset.New([]string{"chain", "loopy"})
	for c := 0; c < 2; c++ {
		for i := 0; i < perClass; i++ {
			d.Add(&dataset.Sample{Label: c, ACFG: randomACFG(rng, c)})
		}
	}
	return d
}

// acfgsOf lists a dataset's graphs, the input shape PredictBatch takes.
func acfgsOf(d *dataset.Dataset) []*acfg.ACFG {
	out := make([]*acfg.ACFG, d.Len())
	for i, s := range d.Samples {
		out[i] = s.ACFG
	}
	return out
}

// fitScaler fits the attribute scaler on a resident dataset, whose At never
// fails.
func fitScaler(t testing.TB, d *dataset.Dataset) *Scaler {
	t.Helper()
	s, err := FitScaler(d)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyConfig(pooling PoolingType, head HeadType) Config {
	cfg := DefaultConfig(2, acfg.NumAttributes)
	cfg.Pooling = pooling
	cfg.Head = head
	cfg.ConvSizes = []int{8, 8}
	cfg.HiddenUnits = 16
	cfg.Conv2DChannels = 4
	cfg.Conv1DChannels = [2]int{4, 8}
	cfg.DropoutRate = 0 // determinism for gradient checks
	cfg.Epochs = 15
	cfg.BatchSize = 8
	cfg.LearningRate = 0.01
	cfg.K = 8
	return cfg
}

// checkModelGradients verifies the full end-to-end backward pass (head →
// pooling → graph convolutions) against finite differences of the NLL loss.
func checkModelGradients(t *testing.T, cfg Config, tol float64) {
	t.Helper()
	m, err := NewModel(cfg, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	a := randomACFG(rng, 1)
	label := 1

	// Jitter every parameter (in particular zero-initialized biases) so no
	// pre-activation sits exactly on a ReLU boundary, where the true
	// gradient is a subgradient and finite differences are one-sided.
	for _, p := range m.params {
		for i := range p.Value.Data {
			p.Value.Data[i] += (rng.Float64() - 0.5) * 0.2
		}
	}

	lossOf := func() float64 {
		loss, _, _ := nn.SoftmaxNLL(m.Forward(a, false), label)
		return loss
	}
	for _, p := range m.params {
		p.ZeroGrad()
	}
	logits := m.Forward(a, false)
	_, _, dlogits := nn.SoftmaxNLL(logits, label)
	m.Backward(dlogits)

	const h = 1e-5
	checked := 0
	for _, p := range m.params {
		// Check a subsample of each tensor to keep the test fast.
		step := len(p.Value.Data)/8 + 1
		for i := 0; i < len(p.Value.Data); i += step {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			up := lossOf()
			p.Value.Data[i] = orig - h
			down := lossOf()
			p.Value.Data[i] = orig
			num := (up - down) / (2 * h)
			if math.Abs(num-p.Grad.Data[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("param %s grad[%d]: analytic %v numeric %v",
					p.Name, i, p.Grad.Data[i], num)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no gradients checked")
	}
}

func TestModelGradientsSortPoolConv1D(t *testing.T) {
	checkModelGradients(t, tinyConfig(SortPooling, Conv1DHead), 1e-3)
}

func TestModelGradientsSortPoolWeightedVertices(t *testing.T) {
	checkModelGradients(t, tinyConfig(SortPooling, WeightedVerticesHead), 1e-3)
}

func TestModelGradientsAdaptivePooling(t *testing.T) {
	// Looser tolerance: a finite-difference step can flip the argmax
	// inside an adaptive-max-pool window (the layers themselves are
	// gradient-checked exactly in internal/nn).
	checkModelGradients(t, tinyConfig(AdaptivePooling, Conv1DHead), 2e-2)
}

// trainVariant trains a tiny model on the two-class toy problem and demands
// high holdout accuracy — the end-to-end learning smoke test per variant.
func trainVariant(t *testing.T, cfg Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	train := twoClassDataset(rng, 24)
	test := twoClassDataset(rng, 10)
	m, err := NewModel(cfg, train.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(m.Weights, train, nil, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range test.Samples {
		if m.PredictClass(s.ACFG) == s.Label {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.9 {
		t.Fatalf("holdout accuracy %.2f < 0.9 (%v)", acc, m)
	}
}

func TestTrainSortPoolConv1D(t *testing.T) {
	trainVariant(t, tinyConfig(SortPooling, Conv1DHead))
}

func TestTrainSortPoolWeightedVertices(t *testing.T) {
	trainVariant(t, tinyConfig(SortPooling, WeightedVerticesHead))
}

func TestTrainAdaptivePooling(t *testing.T) {
	trainVariant(t, tinyConfig(AdaptivePooling, Conv1DHead))
}

func TestTrainWithValidationAndHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := twoClassDataset(rng, 20)
	train, val, err := d.TrainValSplit(0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(SortPooling, WeightedVerticesHead)
	m, err := NewModel(cfg, train.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Train(m.Weights, train, val, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.TrainLoss) == 0 || len(hist.ValLoss) != len(hist.TrainLoss) {
		t.Fatalf("history lengths: train %d val %d", len(hist.TrainLoss), len(hist.ValLoss))
	}
	if hist.BestValLoss <= 0 {
		t.Fatalf("best val loss = %v", hist.BestValLoss)
	}
	if hist.BestEpoch < 0 || hist.BestEpoch >= len(hist.ValLoss) {
		t.Fatalf("best epoch = %d", hist.BestEpoch)
	}
	// Restored parameters must reproduce (approximately) the best loss.
	got := 0.0
	for _, s := range val.Samples {
		got += nn.NLLOfProbs(m.Predict(s.ACFG), s.Label)
	}
	got /= float64(val.Len())
	if math.Abs(got-hist.BestValLoss) > 1e-9 {
		t.Fatalf("restored val loss %v != best %v", got, hist.BestValLoss)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	train := twoClassDataset(rng, 12)
	cfg := tinyConfig(SortPooling, Conv1DHead)
	cfg.Epochs = 5
	m, err := NewModel(cfg, train.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(m.Weights, train, nil, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range train.Samples {
		p1, p2 := m.Predict(s.ACFG), m2.Predict(s.ACFG)
		for i := range p1 {
			if math.Abs(p1[i]-p2[i]) > 1e-12 {
				t.Fatalf("prediction drift after reload: %v vs %v", p1, p2)
			}
		}
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("want decode error")
	}
	if _, err := Load(bytes.NewReader([]byte(`{"config":{"classes":2,"attrDim":0}}`))); err == nil {
		t.Fatal("want validation error")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(9, acfg.NumAttributes)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Classes = 1 },
		func(c *Config) { c.AttrDim = 0 },
		func(c *Config) { c.ConvSizes = nil },
		func(c *Config) { c.ConvSizes = []int{8, 0} },
		func(c *Config) { c.Pooling = 0 },
		func(c *Config) { c.PoolingRatio = 0 },
		func(c *Config) { c.PoolingRatio = 1.5 },
		func(c *Config) { c.DropoutRate = 1 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.LearningRate = 0 },
		func(c *Config) { c.Pooling = SortPooling; c.Head = 0 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig(9, acfg.NumAttributes)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestResolveK(t *testing.T) {
	cfg := DefaultConfig(2, acfg.NumAttributes)
	cfg.PoolingRatio = 0.5
	sizes := []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	k := cfg.ResolveK(sizes)
	// Half the graphs must have >= k vertices.
	atLeast := 0
	for _, s := range sizes {
		if s >= k {
			atLeast++
		}
	}
	if atLeast < 5 {
		t.Fatalf("k = %d keeps only %d/10 graphs unpadded", k, atLeast)
	}
	// Explicit K wins.
	cfg.K = 7
	if cfg.ResolveK(sizes) != 7 {
		t.Fatal("explicit K must win")
	}
	// Degenerate inputs.
	cfg.K = 0
	if got := cfg.ResolveK(nil); got < 2 {
		t.Fatalf("empty sizes k = %d", got)
	}
	if got := cfg.ResolveK([]int{1, 1, 1}); got < 2 {
		t.Fatalf("tiny graphs k = %d", got)
	}
}

func TestEmptyGraphPrediction(t *testing.T) {
	cfg := tinyConfig(AdaptivePooling, Conv1DHead)
	m, err := NewModel(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	empty := &acfg.ACFG{Graph: graph.NewDirected(0), Attrs: tensor.New(0, acfg.NumAttributes)}
	probs := m.Predict(empty)
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestSingleVertexGraphAllVariants(t *testing.T) {
	one := &acfg.ACFG{Graph: graph.NewDirected(1), Attrs: tensor.New(1, acfg.NumAttributes)}
	for _, cfg := range []Config{
		tinyConfig(SortPooling, Conv1DHead),
		tinyConfig(SortPooling, WeightedVerticesHead),
		tinyConfig(AdaptivePooling, Conv1DHead),
	} {
		m, err := NewModel(cfg, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(m.Predict(one)); got != 2 {
			t.Fatalf("%v: %d probabilities", m, got)
		}
	}
}

func TestScalerStandardizes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := twoClassDataset(rng, 10)
	s := fitScaler(t, d)
	if s == nil {
		t.Fatal("nil scaler")
	}
	// Transform all training attributes and verify near-zero mean.
	var sum, count float64
	for _, sample := range d.Samples {
		tr := tensor.New(sample.ACFG.Attrs.Rows, sample.ACFG.Attrs.Cols)
		s.TransformInto(tr, sample.ACFG.Attrs)
		for i := 0; i < tr.Rows; i++ {
			sum += tr.Row(i)[acfg.AttrTotalInstructions]
			count++
		}
	}
	if mean := sum / count; math.Abs(mean) > 1e-9 {
		t.Fatalf("standardized mean = %v", mean)
	}
	if fitScaler(t, &dataset.Dataset{}) != nil {
		t.Fatal("scaler of empty corpus must be nil")
	}
}

func TestPredictClassArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cfg := tinyConfig(SortPooling, WeightedVerticesHead)
	m, err := NewModel(cfg, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	a := randomACFG(rng, 0)
	probs := m.Predict(a)
	cls := m.PredictClass(a)
	for _, p := range probs {
		if p > probs[cls] {
			t.Fatal("PredictClass is not the argmax")
		}
	}
}
