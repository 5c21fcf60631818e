package nn

import (
	"math"

	"repro/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba) used by the paper for
// end-to-end training, with decoupled-from-nothing classic L2 regularization
// folded into the gradient (matching PyTorch's weight_decay semantics that
// the paper's implementation relied on).
type Adam struct {
	params      []*Param
	lr          float64
	beta1       float64
	beta2       float64
	eps         float64
	weightDecay float64

	t int
	m []*tensor.Matrix
	v []*tensor.Matrix
}

// NewAdam builds an Adam optimizer with the standard β₁=0.9, β₂=0.999,
// ε=1e-8 defaults. It allocates every parameter's gradient, since Step reads
// them all.
func NewAdam(params []*Param, lr, weightDecay float64) *Adam {
	a := &Adam{
		params: params, lr: lr,
		beta1: 0.9, beta2: 0.999, eps: 1e-8,
		weightDecay: weightDecay,
		m:           make([]*tensor.Matrix, len(params)),
		v:           make([]*tensor.Matrix, len(params)),
	}
	for i, p := range params {
		p.Gradient()
		a.m[i] = tensor.New(p.Value.Rows, p.Value.Cols)
		a.v[i] = tensor.New(p.Value.Rows, p.Value.Cols)
	}
	return a
}

// Step applies one bias-corrected Adam update and zeroes gradients. Each
// Param.Grad holds the SUM of its per-sample gradients; batchSize divides
// it, so the update is the mean over the mini-batch.
func (a *Adam) Step(batchSize int) {
	a.t++
	scale := 1.0 / float64(max(batchSize, 1))
	bc1 := 1 - math.Pow(a.beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.beta2, float64(a.t))
	for pi, p := range a.params {
		m, v := a.m[pi], a.v[pi]
		for i, g := range p.Grad.Data {
			grad := g*scale + a.weightDecay*p.Value.Data[i]
			m.Data[i] = a.beta1*m.Data[i] + (1-a.beta1)*grad
			v.Data[i] = a.beta2*v.Data[i] + (1-a.beta2)*grad*grad
			mhat := m.Data[i] / bc1
			vhat := v.Data[i] / bc2
			p.Value.Data[i] -= a.lr * mhat / (math.Sqrt(vhat) + a.eps)
		}
		p.ZeroGrad()
	}
}

// SetLR changes the learning rate (used by the plateau scheduler).
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// LR returns the current learning rate.
func (a *Adam) LR() float64 { return a.lr }

// The paper's decay-on-plateau schedule (Section V-B): the learning rate
// falls by plateauFactor once the validation loss has risen for
// plateauPatience consecutive epochs, and never below plateauMinLR.
const (
	plateauFactor   = 0.1
	plateauPatience = 2
	plateauMinLR    = 1e-7
)

// PlateauScheduler decays an Adam optimizer's learning rate on a validation
// plateau — the schedule described in Section V-B ("once the validation loss
// increases for two continuous epochs, we decrease the learning rate by a
// factor of ten").
type PlateauScheduler struct {
	opt *Adam

	prevLoss   float64
	hasPrev    bool
	riseStreak int
}

// NewPlateauScheduler builds the paper's decay-on-plateau schedule over opt.
func NewPlateauScheduler(opt *Adam) *PlateauScheduler {
	return &PlateauScheduler{opt: opt}
}

// Observe records an epoch's validation loss and decays the learning rate
// when the plateau condition triggers. It returns true when a decay
// happened.
func (s *PlateauScheduler) Observe(valLoss float64) bool {
	decayed := false
	if s.hasPrev && valLoss > s.prevLoss {
		s.riseStreak++
	} else {
		s.riseStreak = 0
	}
	if s.riseStreak >= plateauPatience {
		s.opt.SetLR(max(s.opt.LR()*plateauFactor, plateauMinLR))
		s.riseStreak = 0
		decayed = true
	}
	s.prevLoss = valLoss
	s.hasPrev = true
	return decayed
}
