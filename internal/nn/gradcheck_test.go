package nn

import (
	"math"
	"math/rand"
	"testing"
)

// lossOf runs a forward pass and reduces the output with a fixed weighted
// sum so that the loss is a scalar function of inputs and parameters.
func lossOf(l Layer, in *Volume, weights []float64) float64 {
	out := l.Forward(in, false)
	s := 0.0
	for i, v := range out.Data {
		s += v * weights[i]
	}
	return s
}

// checkLayerGradients verifies Backward against central finite differences
// for both the input gradient and every parameter gradient.
func checkLayerGradients(t *testing.T, l Layer, in *Volume, tol float64) {
	t.Helper()
	out := l.Forward(in, false)
	weights := make([]float64, out.Len())
	rng := rand.New(rand.NewSource(99))
	for i := range weights {
		weights[i] = rng.Float64()*2 - 1
	}
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	dout := NewVolume(out.C, out.H, out.W)
	copy(dout.Data, weights)
	l.Forward(in, false) // refresh caches
	din := l.Backward(dout)

	const h = 1e-6
	// Input gradient.
	for i := range in.Data {
		orig := in.Data[i]
		in.Data[i] = orig + h
		up := lossOf(l, in, weights)
		in.Data[i] = orig - h
		down := lossOf(l, in, weights)
		in.Data[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-din.Data[i]) > tol {
			t.Fatalf("input grad [%d]: analytic %v numeric %v", i, din.Data[i], num)
		}
	}
	// Parameter gradients.
	for pi, p := range l.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			up := lossOf(l, in, weights)
			p.Value.Data[i] = orig - h
			down := lossOf(l, in, weights)
			p.Value.Data[i] = orig
			num := (up - down) / (2 * h)
			if math.Abs(num-p.Grad.Data[i]) > tol {
				t.Fatalf("param %d (%s) grad [%d]: analytic %v numeric %v",
					pi, p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

func randVolume(rng *rand.Rand, c, h, w int) *Volume {
	v := NewVolume(c, h, w)
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64()
	}
	return v
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 6, 4)
	checkLayerGradients(t, l, randVolume(rng, 1, 2, 3), 1e-5)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := randVolume(rng, 2, 3, 3)
	// Nudge values away from the kink at 0 so finite differences are valid.
	for i, v := range in.Data {
		if math.Abs(v) < 0.05 {
			in.Data[i] = v + 0.1
		}
	}
	checkLayerGradients(t, NewReLU(), in, 1e-5)
}

func TestTanhGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	checkLayerGradients(t, NewTanh(), randVolume(rng, 1, 2, 5), 1e-5)
}

func TestConv1DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewConv1D(rng, 2, 3, 3, 2)
	checkLayerGradients(t, l, randVolume(rng, 2, 1, 9), 1e-5)
}

func TestConv1DStrideEqualsKernel(t *testing.T) {
	// The DGCNN "remaining layer" uses kernel == stride == feature width.
	rng := rand.New(rand.NewSource(6))
	l := NewConv1D(rng, 1, 4, 5, 5)
	checkLayerGradients(t, l, randVolume(rng, 1, 1, 20), 1e-5)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewConv2D(rng, 2, 3, 3, 3, 1, 1)
	checkLayerGradients(t, l, randVolume(rng, 2, 4, 5), 1e-5)
}

func TestConv2DStride2NoPad(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewConv2D(rng, 1, 2, 2, 3, 2, 0)
	checkLayerGradients(t, l, randVolume(rng, 1, 6, 7), 1e-5)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	checkLayerGradients(t, NewMaxPool2D(2, 2, 2), randVolume(rng, 2, 4, 4), 1e-5)
}

func TestAdaptiveMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	checkLayerGradients(t, NewAdaptiveMaxPool2D(3, 3), randVolume(rng, 2, 5, 7), 1e-5)
}

func TestConvAMPGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := NewConvAMP(rng, 3, 3, 2)
	for i := range l.B.Value.Data {
		l.B.Value.Data[i] = 0.5 // keep a healthy share of ReLU gates open
	}
	checkLayerGradients(t, l, randVolume(rng, 1, 7, 5), 1e-5)
}

func TestSequentialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seq := NewSequential(
		NewConv2D(rng, 1, 2, 3, 3, 1, 1),
		NewTanh(),
		NewAdaptiveMaxPool2D(2, 2),
		NewLinear(rng, 8, 3),
	)
	checkLayerGradients(t, seq, randVolume(rng, 1, 5, 6), 1e-4)
}

func TestSoftmaxNLLGradient(t *testing.T) {
	logits := []float64{0.3, -1.2, 2.0, 0.5}
	label := 2
	loss, probs, dlogits := SoftmaxNLL(logits, label)
	if loss <= 0 {
		t.Fatalf("loss = %v, want > 0", loss)
	}
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probs sum to %v", sum)
	}
	const h = 1e-6
	for i := range logits {
		orig := logits[i]
		logits[i] = orig + h
		up, _, _ := SoftmaxNLL(logits, label)
		logits[i] = orig - h
		down, _, _ := SoftmaxNLL(logits, label)
		logits[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-dlogits[i]) > 1e-5 {
			t.Fatalf("dlogits[%d]: analytic %v numeric %v", i, dlogits[i], num)
		}
	}
}

func TestMSEGradient(t *testing.T) {
	pred := []float64{1, 2, 3}
	target := []float64{0.5, 2.5, 2.0}
	loss, dpred := MSE(pred, target)
	const h = 1e-6
	for i := range pred {
		orig := pred[i]
		pred[i] = orig + h
		up, _ := MSE(pred, target)
		pred[i] = orig - h
		down, _ := MSE(pred, target)
		pred[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-dpred[i]) > 1e-6 {
			t.Fatalf("dpred[%d]: analytic %v numeric %v", i, dpred[i], num)
		}
	}
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
}
