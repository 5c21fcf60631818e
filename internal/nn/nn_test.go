package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVolumeIndexing(t *testing.T) {
	v := NewVolume(2, 3, 4)
	v.Set(1, 2, 3, 42)
	if v.At(1, 2, 3) != 42 {
		t.Fatal("set/get mismatch")
	}
	if v.Len() != 24 {
		t.Fatalf("len = %d", v.Len())
	}
	if v.Data[(1*3+2)*4+3] != 42 {
		t.Fatal("layout mismatch")
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDropout(rng, 0.5)
	in := VecVolume(make([]float64, 1000))
	for i := range in.Data {
		in.Data[i] = 1
	}
	out := d.Forward(in, true)
	zeros := 0
	for _, v := range out.Data {
		if v == 0 {
			zeros++
		} else if math.Abs(v-2) > 1e-12 {
			t.Fatalf("surviving activation %v, want 2 (inverted dropout)", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("dropped %d of 1000 at rate 0.5", zeros)
	}
	// Inference: identity.
	out = d.Forward(in, false)
	for _, v := range out.Data {
		if v != 1 {
			t.Fatal("dropout must be identity at inference")
		}
	}
}

func TestDropoutBackwardMasksGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDropout(rng, 0.5)
	in := VecVolume([]float64{1, 1, 1, 1, 1, 1, 1, 1})
	out := d.Forward(in, true)
	dout := VecVolume([]float64{1, 1, 1, 1, 1, 1, 1, 1})
	din := d.Backward(dout)
	for i := range out.Data {
		if (out.Data[i] == 0) != (din.Data[i] == 0) {
			t.Fatal("gradient mask must match forward mask")
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	p := Softmax([]float64{1000, 1000, 1000})
	for _, v := range p {
		if math.Abs(v-1.0/3.0) > 1e-12 {
			t.Fatalf("softmax overflow: %v", p)
		}
	}
	if Softmax(nil) != nil {
		t.Fatal("softmax of empty must be nil")
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(a, b, c float64) bool {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p := Softmax([]float64{a, b, c})
		sum := p[0] + p[1] + p[2]
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveWindowCoversInput(t *testing.T) {
	for _, tt := range []struct{ out, n int }{
		{3, 5}, {3, 7}, {3, 4}, {3, 3}, {2, 10}, {5, 3}, {1, 1}, {4, 17},
	} {
		covered := make([]bool, tt.n)
		prevStart := -1
		for i := 0; i < tt.out; i++ {
			s, e := adaptiveWindow(i, tt.out, tt.n)
			if s < 0 || e > tt.n || s >= e {
				t.Fatalf("out=%d n=%d i=%d window [%d,%d)", tt.out, tt.n, i, s, e)
			}
			if s < prevStart {
				t.Fatalf("out=%d n=%d: window starts not monotone", tt.out, tt.n)
			}
			prevStart = s
			for j := s; j < e; j++ {
				covered[j] = true
			}
		}
		for j, c := range covered {
			if !c {
				t.Fatalf("out=%d n=%d: input %d not covered", tt.out, tt.n, j)
			}
		}
	}
}

// TestPaperFigure6 reproduces the adaptive-max-pooling example of Figure 6:
// a 3×3 AMP layer over a 5×7 input uses ~3×3 windows and over a 4×7 input
// uses ~2×3 windows; both produce a 3×3 output whose every element is the
// maximum of its window.
func TestPaperFigure6(t *testing.T) {
	amp := NewAdaptiveMaxPool2D(3, 3)
	rng := rand.New(rand.NewSource(6))

	for _, dims := range [][2]int{{5, 7}, {4, 7}} {
		in := randVolume(rng, 1, dims[0], dims[1])
		out := amp.Forward(in, false)
		if out.C != 1 || out.H != 3 || out.W != 3 {
			t.Fatalf("%v input: output %dx%dx%d, want 1x3x3", dims, out.C, out.H, out.W)
		}
		for oy := 0; oy < 3; oy++ {
			y0, y1 := adaptiveWindow(oy, 3, dims[0])
			for ox := 0; ox < 3; ox++ {
				x0, x1 := adaptiveWindow(ox, 3, dims[1])
				best := math.Inf(-1)
				for y := y0; y < y1; y++ {
					for x := x0; x < x1; x++ {
						best = math.Max(best, in.At(0, y, x))
					}
				}
				if out.At(0, oy, ox) != best {
					t.Fatalf("%v input: out(%d,%d) = %v, want window max %v",
						dims, oy, ox, out.At(0, oy, ox), best)
				}
			}
		}
	}
	// Figure 6 window geometry for the 5×7 input: the center window is 3
	// columns wide (kernel width 3).
	x0, x1 := adaptiveWindow(1, 3, 7)
	if x1-x0 != 3 {
		t.Fatalf("center column window width = %d, want 3", x1-x0)
	}
}

func TestConv1DOutWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv1D(rng, 1, 1, 5, 5)
	if c.OutWidth(20) != 4 {
		t.Fatalf("OutWidth(20) = %d, want 4", c.OutWidth(20))
	}
	if c.OutWidth(3) != 0 {
		t.Fatalf("OutWidth(3) = %d, want 0", c.OutWidth(3))
	}
}

func TestConv2DOutDims(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv2D(rng, 1, 1, 3, 3, 1, 1)
	oh, ow := c.OutDims(5, 7)
	if oh != 5 || ow != 7 {
		t.Fatalf("same-pad dims = %dx%d, want 5x7", oh, ow)
	}
}

func TestAdamSolvesXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewSequential(
		NewLinear(rng, 2, 8),
		NewTanh(),
		NewLinear(rng, 8, 2),
	)
	opt := NewAdam(net.Params(), 0.01, 0)
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []int{0, 1, 1, 0}
	for epoch := 0; epoch < 400; epoch++ {
		for i, x := range inputs {
			out := net.Forward(VecVolume(x), true)
			_, _, dlogits := SoftmaxNLL(out.Data, labels[i])
			net.Backward(VecVolume(dlogits))
		}
		opt.Step(len(inputs))
	}
	for i, x := range inputs {
		out := net.Forward(VecVolume(x), false)
		pred := 0
		if out.Data[1] > out.Data[0] {
			pred = 1
		}
		if pred != labels[i] {
			t.Fatalf("XOR(%v) predicted %d, want %d (logits %v)", x, pred, labels[i], out.Data)
		}
	}
}

// frobenius returns the Frobenius norm of a flat matrix.
func frobenius(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x * x
	}
	return math.Sqrt(s)
}

func TestAdamWeightDecayShrinksWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLinear(rng, 3, 3)
	before := frobenius(l.W.Value.Data)
	opt := NewAdam(l.Params(), 0.01, 0.1)
	// Zero gradients: only the decay term acts.
	for i := 0; i < 50; i++ {
		opt.Step(1)
	}
	if after := frobenius(l.W.Value.Data); after >= before {
		t.Fatalf("weight decay did not shrink weights: %v -> %v", before, after)
	}
}

func TestPlateauScheduler(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewLinear(rng, 1, 1)
	opt := NewAdam(l.Params(), 1.0, 0)
	sched := NewPlateauScheduler(opt)

	// Decreasing losses: no decay.
	for _, loss := range []float64{1.0, 0.9, 0.8} {
		if sched.Observe(loss) {
			t.Fatal("decayed on improving loss")
		}
	}
	// One rise: still no decay (patience 2).
	if sched.Observe(0.85) {
		t.Fatal("decayed after single rise")
	}
	// Second consecutive rise: decay by 10x.
	if !sched.Observe(0.9) {
		t.Fatal("expected decay after two consecutive rises")
	}
	if math.Abs(opt.LR()-0.1) > 1e-12 {
		t.Fatalf("LR = %v, want 0.1", opt.LR())
	}
}

func TestPlateauSchedulerMinLR(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	opt := NewAdam(NewLinear(rng, 1, 1).Params(), 1e-7, 0)
	sched := NewPlateauScheduler(opt)
	sched.Observe(1)
	sched.Observe(2)
	sched.Observe(3)
	if opt.LR() < plateauMinLR {
		t.Fatalf("LR %v below floor %v", opt.LR(), plateauMinLR)
	}
}

// TestArgMax pins the one prediction rule: first maximum on ties, a NaN
// never displaces the running maximum, 0 for an empty vector.
func TestArgMax(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		xs   []float64
		want int
	}{
		{nil, 0},
		{[]float64{0.2, 0.5, 0.3}, 1},
		{[]float64{0.4, 0.4, 0.2}, 0},
		{[]float64{0.1, 0.3, 0.3}, 1},
		{[]float64{0.1, nan, 0.6, nan}, 2},
		{[]float64{nan, 0.9}, 0},
		{[]float64{math.Inf(-1), math.Inf(-1)}, 0},
	} {
		if got := ArgMax(tc.xs); got != tc.want {
			t.Errorf("ArgMax(%v) = %d, want %d", tc.xs, got, tc.want)
		}
	}
}

func TestNLLOfProbsClamps(t *testing.T) {
	if v := NLLOfProbs([]float64{0, 1}, 0); math.IsInf(v, 1) {
		t.Fatal("NLL must clamp zero probabilities")
	}
}
