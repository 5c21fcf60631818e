package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestClassifierFitPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	train := twoClassDataset(rng, 14)
	cfg := tinyConfig(SortPooling, WeightedVerticesHead)
	cfg.Epochs = 6
	clf := &Classifier{Cfg: cfg, ValFraction: 0.25}
	if clf.model != nil {
		t.Fatal("model must be nil before Fit")
	}
	if err := clf.Fit(train); err != nil {
		t.Fatal(err)
	}
	if clf.model == nil {
		t.Fatal("model must exist after Fit")
	}
	probs := clf.Predict(train.Samples[0])
	if len(probs) != 2 {
		t.Fatalf("probs = %v", probs)
	}
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probs sum to %v", sum)
	}
}

func TestClassifierPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	clf := &Classifier{Cfg: tinyConfig(SortPooling, WeightedVerticesHead)}
	rng := rand.New(rand.NewSource(1))
	d := twoClassDataset(rng, 2)
	clf.Predict(d.Samples[0])
}

func TestClassifierBadValFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	train := twoClassDataset(rng, 5)
	clf := &Classifier{Cfg: tinyConfig(SortPooling, WeightedVerticesHead), ValFraction: 2}
	if err := clf.Fit(train); err == nil {
		t.Fatal("want error for invalid val fraction")
	}
}

func TestSaveLoadFile(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	train := twoClassDataset(rng, 8)
	cfg := tinyConfig(AdaptivePooling, Conv1DHead)
	cfg.Epochs = 2
	m, err := NewModel(cfg, train.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(m.Weights, train, nil, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := train.Samples[0]
	if m.PredictClass(s.ACFG) != m2.PredictClass(s.ACFG) {
		t.Fatal("prediction changed after file round trip")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("want error for missing file")
	}
	if err := m.SaveFile(filepath.Join(path, "cannot", "create")); err == nil {
		t.Fatal("want error for uncreatable path")
	}
	_ = os.Remove(path)
}

func TestModelIntrospection(t *testing.T) {
	m, err := NewModel(tinyConfig(SortPooling, WeightedVerticesHead), []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumParameters() <= 0 {
		t.Fatal("no parameters")
	}
	if !strings.Contains(m.String(), "Sort Pooling") {
		t.Fatalf("String() = %q", m.String())
	}
	amp, err := NewModel(tinyConfig(AdaptivePooling, Conv1DHead), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(amp.String(), "grid=") {
		t.Fatalf("String() = %q", amp.String())
	}
}

func TestPoolingAndHeadStrings(t *testing.T) {
	if SortPooling.String() != "Sort Pooling" || AdaptivePooling.String() != "Adaptive Pooling" {
		t.Fatal("pooling names")
	}
	if PoolingType(99).String() == "" {
		t.Fatal("unknown pooling must still render")
	}
	if Conv1DHead.String() != "1D Convolution Layer" || WeightedVerticesHead.String() != "WeightedVertices Layer" {
		t.Fatal("head names")
	}
	if HeadType(99).String() == "" {
		t.Fatal("unknown head must still render")
	}
}

// argmax is the first index of the largest element, written out here as
// an independent reference for PredictClass.
func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func TestPredictDatasetHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	d := twoClassDataset(rng, 6)
	cfg := tinyConfig(SortPooling, WeightedVerticesHead)
	cfg.Epochs = 4
	m, err := NewModel(cfg, d.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(m.Weights, d, nil, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	for i, s := range d.Samples {
		if got, want := m.PredictClass(s.ACFG), argmax(m.Predict(s.ACFG)); got != want {
			t.Fatalf("sample %d: PredictClass = %d, argmax of Predict = %d", i, got, want)
		}
	}
}

func TestTrainLogging(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	d := twoClassDataset(rng, 8)
	train, val, err := d.TrainValSplit(0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(SortPooling, WeightedVerticesHead)
	cfg.Epochs = 3
	m, err := NewModel(cfg, train.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	var seen []EpochStats
	opts := TrainOptions{Observer: EpochObserverFunc(func(e EpochStats) {
		seen = append(seen, e)
	})}
	check := func(hasVal bool) {
		t.Helper()
		if len(seen) != 3 {
			t.Fatalf("observed %d epochs (val %v), want 3", len(seen), hasVal)
		}
		for i, e := range seen {
			if e.Epoch != i || e.HasVal != hasVal {
				t.Fatalf("call %d: epoch %d, HasVal %v; want epoch %d, HasVal %v", i, e.Epoch, e.HasVal, i, hasVal)
			}
		}
	}
	if _, err := Train(m.Weights, train, val, opts); err != nil {
		t.Fatal(err)
	}
	check(true)
	// Training without a validation set is observed too.
	m2, err := NewModel(cfg, train.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	seen = nil
	if _, err := Train(m2.Weights, train, nil, opts); err != nil {
		t.Fatal(err)
	}
	check(false)
}

func TestTrainEmptyDataset(t *testing.T) {
	cfg := tinyConfig(SortPooling, WeightedVerticesHead)
	m, err := NewModel(cfg, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	empty := twoClassDataset(rand.New(rand.NewSource(1)), 1)
	empty.Samples = nil
	if _, err := Train(m.Weights, empty, nil, TrainOptions{}); err == nil {
		t.Fatal("want error for empty training set")
	}
}
