package baseline

import (
	"math"
	"testing"

	"repro/internal/acfg"
	"repro/internal/graph"
	"repro/internal/tensor"
)

func chainACFG(n int, arithFrac float64) *acfg.ACFG {
	g := graph.NewDirected(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	attrs := tensor.New(n, acfg.NumAttributes)
	for v := 0; v < n; v++ {
		attrs.Set(v, acfg.AttrTotalInstructions, 6)
		attrs.Set(v, acfg.AttrArithmetic, 6*arithFrac)
		attrs.Set(v, acfg.AttrMov, 6*(1-arithFrac))
		attrs.Set(v, acfg.AttrOffspring, float64(g.OutDegree(v)))
	}
	a, err := acfg.New(g, attrs)
	if err != nil {
		panic(err)
	}
	return a
}

func TestWLFeatureMapDeterministic(t *testing.T) {
	w := NewWLKernelKNN()
	a := chainACFG(10, 0.8)
	f1 := w.featureMap(a)
	f2 := w.featureMap(a)
	if len(f1) != len(f2) {
		t.Fatal("non-deterministic feature map")
	}
	for k, v := range f1 {
		if f2[k] != v {
			t.Fatal("non-deterministic feature map")
		}
	}
}

func TestWLIdenticalGraphsSimilarityOne(t *testing.T) {
	w := NewWLKernelKNN()
	a := chainACFG(12, 0.5)
	f := w.featureMap(a)
	sim := wlDot(f, f) / (wlNorm(f) * wlNorm(f))
	if math.Abs(sim-1) > 1e-12 {
		t.Fatalf("self similarity = %v", sim)
	}
}

func TestWLDistinguishesStructure(t *testing.T) {
	w := NewWLKernelKNN()
	chain := w.featureMap(chainACFG(12, 0.5))
	// Star graph with identical attributes.
	g := graph.NewDirected(12)
	for v := 1; v < 12; v++ {
		g.AddEdge(0, v)
	}
	attrs := tensor.New(12, acfg.NumAttributes)
	for v := 0; v < 12; v++ {
		attrs.Set(v, acfg.AttrTotalInstructions, 6)
		attrs.Set(v, acfg.AttrArithmetic, 3)
		attrs.Set(v, acfg.AttrMov, 3)
		attrs.Set(v, acfg.AttrOffspring, float64(g.OutDegree(v)))
	}
	star, err := acfg.New(g, attrs)
	if err != nil {
		t.Fatal(err)
	}
	starF := w.featureMap(star)
	sim := wlDot(chain, starF) / (wlNorm(chain)*wlNorm(starF) + 1e-12)
	if sim > 0.95 {
		t.Fatalf("structurally different graphs too similar: %v", sim)
	}
}

func TestWLFeatureCountMass(t *testing.T) {
	w := NewWLKernelKNN()
	n := 9
	f := w.featureMap(chainACFG(n, 0.3))
	mass := 0.0
	for _, v := range f {
		mass += v
	}
	// One color per vertex per round (initial + Iterations refinements).
	want := float64(n * (1 + w.Iterations))
	if mass != want {
		t.Fatalf("color mass = %v, want %v", mass, want)
	}
}

func TestWLKernelKNNClassifiesToy(t *testing.T) {
	train, test := toyDataset(15, 30), toyDataset(6, 31)
	if acc := holdoutAccuracy(t, NewWLKernelKNN(), train, test); acc < 0.85 {
		t.Fatalf("wl-knn accuracy %v", acc)
	}
}

func TestWLEmptyGraph(t *testing.T) {
	w := NewWLKernelKNN()
	empty := &acfg.ACFG{Graph: graph.NewDirected(0), Attrs: tensor.New(0, acfg.NumAttributes)}
	if f := w.featureMap(empty); len(f) != 0 {
		t.Fatalf("empty graph features = %v", f)
	}
}

func TestWLPredictionCostGrowsWithTrainingSet(t *testing.T) {
	// Not a timing test (flaky); assert the structural property instead:
	// the model must retain every training graph.
	small, big := toyDataset(5, 32), toyDataset(40, 33)
	w1, w2 := NewWLKernelKNN(), NewWLKernelKNN()
	if err := w1.Fit(small); err != nil {
		t.Fatal(err)
	}
	if err := w2.Fit(big); err != nil {
		t.Fatal(err)
	}
	if len(w1.refs) != small.Len() || len(w2.refs) != big.Len() {
		t.Fatalf("references %d/%d, want %d/%d",
			len(w1.refs), len(w2.refs), small.Len(), big.Len())
	}
}
