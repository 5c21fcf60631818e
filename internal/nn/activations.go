package nn

import (
	"math"
	"math/rand"
)

// The activation layers draw their outputs from the shared per-replica
// Workspace when one is installed (SetWorkspace). Workspace buffers are
// dirty on checkout, so every forward/backward below writes both branches
// of its elementwise conditionals — relying on a zeroed destination would
// leak the previous sample's activations into this one.

// ReLU applies max(x, 0) elementwise — the nonlinearity f used in the
// paper's graph-convolution walk-through (Figure 3).
type ReLU struct {
	wsHolder
	lastIn *Volume
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// reluKeepMask returns an all-ones mask when the float64 with the given
// bits is strictly positive and zero otherwise. ANDing a value's bits with
// the mask of the gate value is a branch-free rectifier: the sign test of
// the reference loop (`if v > 0`) mispredicts on roughly half of
// conv-activation data, and those stalls — not arithmetic — dominated the
// layer's cost. For every finite or infinite gate the masked result is
// bit-identical to the branch (positives pass unchanged, negatives and
// both zeros yield +0, exactly what `v > 0 ? v : 0` produces); only a
// positive-sign NaN gate differs, which no real forward pass produces.
func reluKeepMask(bits uint64) uint64 {
	t := bits << 1            // drop the sign; zero iff v == ±0
	nz := (t | -t) >> 63      // 1 iff v != ±0
	pos := nz &^ (bits >> 63) // 1 iff v > 0
	return -pos               // all ones iff v > 0
}

// Forward applies the rectifier.
func (r *ReLU) Forward(in *Volume, _ bool) *Volume {
	r.lastIn = in
	out := r.ws.Volume(in.C, in.H, in.W)
	od := out.Data[:len(in.Data)]
	for i, v := range in.Data {
		b := math.Float64bits(v)
		od[i] = math.Float64frombits(b & reluKeepMask(b))
	}
	return out
}

// Backward gates the incoming gradient on the sign of the cached input.
func (r *ReLU) Backward(dout *Volume) *Volume {
	din := r.ws.Volume(dout.C, dout.H, dout.W)
	xs := r.lastIn.Data
	dd := din.Data[:len(dout.Data)]
	for i, g := range dout.Data {
		keep := reluKeepMask(math.Float64bits(xs[i]))
		dd[i] = math.Float64frombits(math.Float64bits(g) & keep)
	}
	return din
}

// Params returns nil: ReLU has no trainable state.
func (r *ReLU) Params() []*Param { return nil }

// Tanh applies the hyperbolic tangent elementwise.
type Tanh struct {
	wsHolder
	lastOut *Volume
}

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh.
func (t *Tanh) Forward(in *Volume, _ bool) *Volume {
	out := t.ws.Volume(in.C, in.H, in.W)
	for i, v := range in.Data {
		out.Data[i] = math.Tanh(v)
	}
	t.lastOut = out
	return out
}

// Backward multiplies by 1 - tanh².
func (t *Tanh) Backward(dout *Volume) *Volume {
	din := t.ws.Volume(dout.C, dout.H, dout.W)
	for i, g := range dout.Data {
		y := t.lastOut.Data[i]
		din.Data[i] = g * (1 - y*y)
	}
	return din
}

// Params returns nil: Tanh has no trainable state.
func (t *Tanh) Params() []*Param { return nil }

// Dropout zeroes each activation with probability Rate during training and
// rescales survivors by 1/(1-Rate) (inverted dropout), so inference needs no
// change.
type Dropout struct {
	Rate float64

	wsHolder
	// rng is the layer-private mask stream, created by the first Reseed and
	// re-seeded in place on later calls, so the trainer's per-sample
	// reseeding allocates nothing in steady state. A training forward before
	// any Reseed seeds it with 0, so an unseeded layer is deterministic too.
	rng *rand.Rand
	// mask is the persistent survivor mask, grown to the largest activation
	// seen and fully rewritten on every training forward.
	mask   []bool
	masked bool
}

// NewDropout returns a Dropout layer with the given drop probability.
func NewDropout(rate float64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic("nn: dropout rate must be in [0, 1)")
	}
	return &Dropout{Rate: rate}
}

// Reseed re-points the layer's mask stream at a deterministic position. The
// trainer calls this with a per-sample seed before each training forward
// pass so the mask depends only on (seed, sample) — never on the order or
// goroutine that happens to process the sample. This is the keystone of the
// data-parallel trainer's parallel-equals-serial guarantee.
func (d *Dropout) Reseed(seed int64) {
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(seed))
	} else {
		d.rng.Seed(seed)
	}
}

// Forward applies the dropout mask during training and is the identity at
// inference time.
func (d *Dropout) Forward(in *Volume, train bool) *Volume {
	if !train || d.Rate == 0 {
		d.masked = false
		return in
	}
	if d.rng == nil {
		d.Reseed(0)
	}
	out := d.ws.Volume(in.C, in.H, in.W)
	if cap(d.mask) < in.Len() {
		d.mask = make([]bool, in.Len())
	}
	d.mask = d.mask[:in.Len()]
	d.masked = true
	scale := 1 / (1 - d.Rate)
	for i, v := range in.Data {
		if d.rng.Float64() >= d.Rate {
			d.mask[i] = true
			out.Data[i] = v * scale
		} else {
			d.mask[i] = false
			out.Data[i] = 0
		}
	}
	return out
}

// Backward routes gradients only through surviving activations.
func (d *Dropout) Backward(dout *Volume) *Volume {
	if !d.masked {
		return dout
	}
	din := d.ws.Volume(dout.C, dout.H, dout.W)
	scale := 1 / (1 - d.Rate)
	for i, g := range dout.Data {
		if d.mask[i] {
			din.Data[i] = g * scale
		} else {
			din.Data[i] = 0
		}
	}
	return din
}

// Params returns nil: Dropout has no trainable state.
func (d *Dropout) Params() []*Param { return nil }

var (
	_ Layer         = (*ReLU)(nil)
	_ Layer         = (*Tanh)(nil)
	_ Layer         = (*Dropout)(nil)
	_ WorkspaceUser = (*ReLU)(nil)
	_ WorkspaceUser = (*Dropout)(nil)
)
