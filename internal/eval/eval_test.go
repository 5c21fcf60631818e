package eval

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/acfg"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/tensor"
)

func TestComputePerfect(t *testing.T) {
	names := []string{"a", "b"}
	labels := []int{0, 0, 1, 1}
	preds := []int{0, 0, 1, 1}
	probs := [][]float64{{1, 0}, {0.9, 0.1}, {0.2, 0.8}, {0, 1}}
	m, err := Compute(names, labels, preds, probs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy != 1 {
		t.Fatalf("accuracy = %v", m.Accuracy)
	}
	for _, c := range m.Classes {
		if c.Precision != 1 || c.Recall != 1 || c.F1 != 1 {
			t.Fatalf("class %s scores %+v", c.Class, c)
		}
	}
	if m.MeanNLL <= 0 {
		t.Fatalf("NLL = %v", m.MeanNLL)
	}
}

func TestComputeKnownConfusion(t *testing.T) {
	names := []string{"a", "b", "c"}
	//                a  a  a  b  b  c
	labels := []int{0, 0, 0, 1, 1, 2}
	preds := []int{0, 0, 1, 1, 2, 2}
	m, err := Compute(names, labels, preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Accuracy-4.0/6.0) > 1e-12 {
		t.Fatalf("accuracy = %v", m.Accuracy)
	}
	a, _ := m.ScoreFor("a")
	// a: tp=2, fp=0, fn=1 → P=1, R=2/3.
	if a.Precision != 1 || math.Abs(a.Recall-2.0/3.0) > 1e-12 {
		t.Fatalf("a = %+v", a)
	}
	b, _ := m.ScoreFor("b")
	// b: tp=1, fp=1 (one a predicted b), fn=1 → P=0.5, R=0.5, F1=0.5.
	if b.Precision != 0.5 || b.Recall != 0.5 || b.F1 != 0.5 {
		t.Fatalf("b = %+v", b)
	}
	c, _ := m.ScoreFor("c")
	// c: tp=1, fp=1, fn=0 → P=0.5, R=1.
	if c.Precision != 0.5 || c.Recall != 1 {
		t.Fatalf("c = %+v", c)
	}
	if m.Confusion[0][1] != 1 || m.Confusion[1][2] != 1 {
		t.Fatalf("confusion = %v", m.Confusion)
	}
}

func TestComputeErrors(t *testing.T) {
	if _, err := Compute([]string{"a"}, []int{0}, []int{0, 0}, nil); err == nil {
		t.Fatal("want length mismatch error")
	}
	if _, err := Compute([]string{"a"}, []int{3}, []int{0}, nil); err == nil {
		t.Fatal("want out-of-range error")
	}
	if _, err := Compute([]string{"a"}, []int{0}, []int{0}, [][]float64{}); err == nil {
		t.Fatal("want probs length error")
	}
}

func TestComputeZeroSupportClass(t *testing.T) {
	m, err := Compute([]string{"a", "ghost"}, []int{0, 0}, []int{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := m.ScoreFor("ghost")
	if g.Support != 0 || g.F1 != 0 {
		t.Fatalf("ghost = %+v", g)
	}
	// Macro F1 ignores zero-support classes.
	if m.MacroF1() != 1 {
		t.Fatalf("macro F1 = %v", m.MacroF1())
	}
}

func TestAverage(t *testing.T) {
	m1, _ := Compute([]string{"a", "b"}, []int{0, 1}, []int{0, 1}, nil)
	m2, _ := Compute([]string{"a", "b"}, []int{0, 1}, []int{1, 1}, nil)
	avg := Average([]*Metrics{m1, m2})
	if math.Abs(avg.Accuracy-0.75) > 1e-12 {
		t.Fatalf("avg accuracy = %v", avg.Accuracy)
	}
	if avg.N != 4 {
		t.Fatalf("avg N = %d", avg.N)
	}
	a, _ := avg.ScoreFor("a")
	if math.Abs(a.Recall-0.5) > 1e-12 {
		t.Fatalf("avg a recall = %v", a.Recall)
	}
	if empty := Average(nil); empty.N != 0 {
		t.Fatal("average of nothing must be empty")
	}
}

func TestConfusionTableRendering(t *testing.T) {
	m, _ := Compute([]string{"a", "b"}, []int{0, 1, 1}, []int{0, 0, 1}, nil)
	table := m.ConfusionTable([]string{"a", "b"})
	if !strings.Contains(table, "a") || !strings.Contains(table, "true\\pred") {
		t.Fatalf("table = %s", table)
	}
}

func TestAverageSumsConfusion(t *testing.T) {
	m1, _ := Compute([]string{"a", "b"}, []int{0, 1}, []int{0, 1}, nil)
	m2, _ := Compute([]string{"a", "b"}, []int{0, 1}, []int{1, 1}, nil)
	avg := Average([]*Metrics{m1, m2})
	if avg.Confusion[0][0] != 1 || avg.Confusion[0][1] != 1 || avg.Confusion[1][1] != 2 {
		t.Fatalf("summed confusion = %v", avg.Confusion)
	}
}

func TestScoresFigure(t *testing.T) {
	m, _ := Compute([]string{"Ramnit"}, []int{0, 0}, []int{0, 0}, nil)
	fig := m.ScoresFigure("Figure 9")
	if !strings.Contains(fig, "Figure 9") || !strings.Contains(fig, "█") {
		t.Fatalf("figure = %s", fig)
	}
}

func TestTableRendering(t *testing.T) {
	m, _ := Compute([]string{"Ramnit", "Gatak"}, []int{0, 1}, []int{0, 1}, nil)
	table := m.Table()
	if !strings.Contains(table, "Ramnit") || !strings.Contains(table, "Accuracy") {
		t.Fatalf("table = %s", table)
	}
}

// centroidClassifier is a trivial deterministic classifier for harness
// tests: it averages each class's mean vertex-attribute vector and predicts
// the nearest class.
type centroidClassifier struct {
	centroids map[int][]float64
	classes   int
}

func meanAttrs(a *acfg.ACFG) []float64 {
	out := make([]float64, a.Attrs.Cols)
	if a.Attrs.Rows == 0 {
		return out
	}
	for i := 0; i < a.Attrs.Rows; i++ {
		for j, v := range a.Attrs.Row(i) {
			out[j] += v
		}
	}
	for j := range out {
		out[j] /= float64(a.Attrs.Rows)
	}
	return out
}

func (c *centroidClassifier) Fit(train *dataset.Dataset) error {
	c.classes = train.NumClasses()
	sums := make(map[int][]float64)
	counts := make(map[int]int)
	for _, s := range train.Samples {
		m := meanAttrs(s.ACFG)
		if sums[s.Label] == nil {
			sums[s.Label] = make([]float64, len(m))
		}
		for j, v := range m {
			sums[s.Label][j] += v
		}
		counts[s.Label]++
	}
	c.centroids = make(map[int][]float64)
	for label, sum := range sums {
		for j := range sum {
			sum[j] /= float64(counts[label])
		}
		c.centroids[label] = sum
	}
	return nil
}

func (c *centroidClassifier) Predict(s *dataset.Sample) []float64 {
	m := meanAttrs(s.ACFG)
	probs := make([]float64, c.classes)
	total := 0.0
	for label := 0; label < c.classes; label++ {
		cent, ok := c.centroids[label]
		if !ok {
			continue
		}
		d := 0.0
		for j := range m {
			d += (m[j] - cent[j]) * (m[j] - cent[j])
		}
		probs[label] = 1 / (1 + d)
		total += probs[label]
	}
	if total > 0 {
		for i := range probs {
			probs[i] /= total
		}
	}
	return probs
}

func separableDataset(perClass int) *dataset.Dataset {
	d := dataset.New([]string{"low", "high"})
	for c := 0; c < 2; c++ {
		for i := 0; i < perClass; i++ {
			g := graph.NewDirected(4)
			g.AddEdge(0, 1)
			g.AddEdge(1, 2)
			g.AddEdge(2, 3)
			attrs := tensor.New(4, acfg.NumAttributes)
			for v := 0; v < 4; v++ {
				attrs.Set(v, acfg.AttrMov, float64(c*10+i%3))
				attrs.Set(v, acfg.AttrTotalInstructions, float64(c*10+5))
			}
			a, err := acfg.New(g, attrs)
			if err != nil {
				panic(err)
			}
			d.Add(&dataset.Sample{Name: fmt.Sprintf("%d-%d", c, i), Label: c, ACFG: a})
		}
	}
	return d
}

func TestCrossValidateCentroid(t *testing.T) {
	d := separableDataset(15)
	res, err := CrossValidate(d, 5, 1, func(int) (Classifier, error) {
		return &centroidClassifier{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Folds) != 5 {
		t.Fatalf("folds = %d", len(res.Folds))
	}
	if res.Mean.Accuracy < 0.99 {
		t.Fatalf("separable data should be perfectly classified, got %v", res.Mean.Accuracy)
	}
}

func TestCrossValidateFactoryError(t *testing.T) {
	d := separableDataset(5)
	_, err := CrossValidate(d, 2, 1, func(int) (Classifier, error) {
		return nil, fmt.Errorf("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestScoreUsesArgmax(t *testing.T) {
	d := separableDataset(3)
	clf := &centroidClassifier{}
	if err := clf.Fit(d); err != nil {
		t.Fatal(err)
	}
	m, err := Score(clf, d, d.Families)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != d.Len() {
		t.Fatalf("scored %d of %d", m.N, d.Len())
	}
}

func TestCVResultStdAccuracy(t *testing.T) {
	m1, _ := Compute([]string{"a", "b"}, []int{0, 1}, []int{0, 1}, nil) // acc 1.0
	m2, _ := Compute([]string{"a", "b"}, []int{0, 1}, []int{1, 1}, nil) // acc 0.5
	cv := &CVResult{Folds: []*Metrics{m1, m2}}
	if got := cv.StdAccuracy(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("std accuracy = %v, want 0.25", got)
	}
	single := &CVResult{Folds: []*Metrics{m1}}
	if single.StdAccuracy() != 0 {
		t.Fatal("single fold std must be 0")
	}
}
