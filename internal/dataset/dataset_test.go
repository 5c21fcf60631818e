package dataset

import (
	"bytes"
	"testing"

	"repro/internal/acfg"
	"repro/internal/graph"
	"repro/internal/tensor"
)

func tinyACFG(n int) *acfg.ACFG {
	g := graph.NewDirected(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	a, err := acfg.New(g, tensor.New(n, acfg.NumAttributes))
	if err != nil {
		panic(err)
	}
	return a
}

func buildDataset(perClass []int) *Dataset {
	families := make([]string, len(perClass))
	for i := range families {
		families[i] = string(rune('A' + i))
	}
	d := New(families)
	for c, n := range perClass {
		for i := 0; i < n; i++ {
			d.Add(&Sample{Name: families[c], Label: c, ACFG: tinyACFG(3 + i%5)})
		}
	}
	return d
}

func TestCountByClass(t *testing.T) {
	d := buildDataset([]int{5, 3, 7})
	counts := d.CountByClass()
	want := []int{5, 3, 7}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if d.Len() != 15 || d.NumClasses() != 3 {
		t.Fatalf("len=%d classes=%d", d.Len(), d.NumClasses())
	}
}

func TestAddRejectsBadLabel(t *testing.T) {
	d := New([]string{"a"})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on out-of-range label")
		}
	}()
	d.Add(&Sample{Label: 5, ACFG: tinyACFG(2)})
}

func TestStratifiedKFold(t *testing.T) {
	d := buildDataset([]int{20, 10, 30})
	folds, err := d.StratifiedKFold(5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := make(map[int]int)
	for fi, f := range folds {
		if len(f.Train)+len(f.Val) != d.Len() {
			t.Fatalf("fold %d covers %d samples", fi, len(f.Train)+len(f.Val))
		}
		for _, v := range f.Val {
			seen[v]++
		}
		// No overlap between train and val.
		inVal := make(map[int]bool, len(f.Val))
		for _, v := range f.Val {
			inVal[v] = true
		}
		for _, tr := range f.Train {
			if inVal[tr] {
				t.Fatalf("fold %d: sample %d in both train and val", fi, tr)
			}
		}
		// Stratification: each class appears in every validation fold.
		classCounts := make([]int, d.NumClasses())
		for _, v := range f.Val {
			classCounts[d.Samples[v].Label]++
		}
		for c, n := range classCounts {
			if n == 0 {
				t.Fatalf("fold %d validation has no samples of class %d", fi, c)
			}
		}
	}
	// Every sample validated exactly once across folds.
	if len(seen) != d.Len() {
		t.Fatalf("%d samples validated, want %d", len(seen), d.Len())
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("sample %d validated %d times", i, n)
		}
	}
}

func TestStratifiedKFoldDeterministic(t *testing.T) {
	d := buildDataset([]int{10, 10})
	f1, err := d.StratifiedKFold(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := d.StratifiedKFold(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1 {
		if len(f1[i].Val) != len(f2[i].Val) {
			t.Fatal("non-deterministic folds")
		}
		for j := range f1[i].Val {
			if f1[i].Val[j] != f2[i].Val[j] {
				t.Fatal("non-deterministic folds")
			}
		}
	}
}

func TestStratifiedKFoldErrors(t *testing.T) {
	d := buildDataset([]int{2})
	if _, err := d.StratifiedKFold(1, 1); err == nil {
		t.Fatal("want error for k=1")
	}
	if _, err := d.StratifiedKFold(5, 1); err == nil {
		t.Fatal("want error for too few samples")
	}
}

func TestTrainValSplit(t *testing.T) {
	d := buildDataset([]int{20, 40})
	train, val, err := d.TrainValSplit(0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len()+val.Len() != d.Len() {
		t.Fatalf("split loses samples: %d + %d != %d", train.Len(), val.Len(), d.Len())
	}
	vc := val.CountByClass()
	if vc[0] != 5 || vc[1] != 10 {
		t.Fatalf("val counts = %v, want [5 10]", vc)
	}
	if _, _, err := d.TrainValSplit(0, 1); err == nil {
		t.Fatal("want error for fraction 0")
	}
	if _, _, err := d.TrainValSplit(1, 1); err == nil {
		t.Fatal("want error for fraction 1")
	}
}

func TestTrainValSplitSmallClassKeepsOneVal(t *testing.T) {
	d := buildDataset([]int{3, 30})
	_, val, err := d.TrainValSplit(0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if val.CountByClass()[0] == 0 {
		t.Fatal("small class must keep at least one validation sample")
	}
}

func TestSubsetAndSizes(t *testing.T) {
	d := buildDataset([]int{4})
	sub := d.Subset([]int{0, 2})
	if sub.Len() != 2 {
		t.Fatalf("subset len = %d", sub.Len())
	}
	sizes := d.Sizes()
	if len(sizes) != 4 || sizes[0] != 3 || sizes[1] != 4 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := buildDataset([]int{3, 2})
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() || got.NumClasses() != d.NumClasses() {
		t.Fatalf("round trip: %d/%d vs %d/%d", got.Len(), got.NumClasses(), d.Len(), d.NumClasses())
	}
	for i := range d.Samples {
		a, b := d.Samples[i], got.Samples[i]
		if a.Label != b.Label || a.ACFG.NumVertices() != b.ACFG.NumVertices() {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	for _, bad := range []string{
		"",
		"not json\n",
		`{"families":["a"]}` + "\n" + `{"name":"x","label":7,"acfg":{"n":0,"edges":[],"attrs":[]}}` + "\n",
	} {
		if _, err := Read(bytes.NewReader([]byte(bad))); err == nil {
			t.Fatalf("want error for %q", bad)
		}
	}
}
