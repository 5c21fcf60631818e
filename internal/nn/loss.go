package nn

import (
	"fmt"
	"math"
)

// Softmax returns the softmax of a logit vector, computed with the usual
// max-subtraction for numerical stability.
func Softmax(logits []float64) []float64 {
	if len(logits) == 0 {
		return nil
	}
	out := make([]float64, len(logits))
	SoftmaxInto(out, logits)
	return out
}

// ArgMax returns the index of the largest element of xs, the first on ties,
// and 0 for an empty slice. NaN compares false with everything, so a NaN
// never displaces the running maximum (and one at index 0 is never
// displaced). Every prediction in the repository — a model's class, a
// training hit, a holdout or cross-validation score — is this rule over a
// probability or logit vector.
func ArgMax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// SoftmaxInto writes softmax(logits) into dst, which must have the same
// length. Every element of dst is overwritten, so dirty scratch buffers are
// valid destinations. dst may alias logits. Bit-identical to Softmax.
func SoftmaxInto(dst, logits []float64) {
	if len(dst) != len(logits) {
		panic(fmt.Sprintf("nn: softmax destination length %d, want %d", len(dst), len(logits)))
	}
	if len(logits) == 0 {
		return
	}
	maxV := logits[0]
	for _, v := range logits[1:] {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - maxV)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// SoftmaxNLL computes the negative log-likelihood loss of Eq. 5 for one
// sample: L = -log p_label where p = softmax(logits). It returns the loss,
// the predicted probability vector and the gradient of the loss with respect
// to the logits (p - onehot(label)), which is what the model's Backward
// consumes.
func SoftmaxNLL(logits []float64, label int) (loss float64, probs, dlogits []float64) {
	probs = make([]float64, len(logits))
	dlogits = make([]float64, len(logits))
	loss = SoftmaxNLLInto(logits, label, probs, dlogits)
	return loss, probs, dlogits
}

// SoftmaxNLLInto is the destination-passing form of SoftmaxNLL: it fills the
// caller-supplied probs and dlogits (both len(logits), fully overwritten) and
// returns the loss. The training hot path reuses two persistent slices per
// replica so the per-sample loss computation allocates nothing.
func SoftmaxNLLInto(logits []float64, label int, probs, dlogits []float64) float64 {
	if label < 0 || label >= len(logits) {
		panic(fmt.Sprintf("nn: label %d out of range for %d classes", label, len(logits)))
	}
	if len(probs) != len(logits) || len(dlogits) != len(logits) {
		panic(fmt.Sprintf("nn: softmax-nll scratch lengths %d/%d, want %d", len(probs), len(dlogits), len(logits)))
	}
	SoftmaxInto(probs, logits)
	p := probs[label]
	if p < 1e-15 {
		p = 1e-15
	}
	copy(dlogits, probs)
	dlogits[label] -= 1
	return -math.Log(p)
}

// NLLOfProbs returns -log p_label for an already-normalized probability
// vector, clamping away from zero. Used when scoring held-out predictions.
func NLLOfProbs(probs []float64, label int) float64 {
	p := probs[label]
	if p < 1e-15 {
		p = 1e-15
	}
	return -math.Log(p)
}

// MSE computes the mean squared error between two equal-length vectors and
// the gradient with respect to the prediction (used by the autoencoder
// baseline).
func MSE(pred, target []float64) (loss float64, dpred []float64) {
	if len(pred) != len(target) {
		panic(fmt.Sprintf("nn: mse length mismatch %d vs %d", len(pred), len(target)))
	}
	n := float64(len(pred))
	dpred = make([]float64, len(pred))
	for i, p := range pred {
		d := p - target[i]
		loss += d * d
		dpred[i] = 2 * d / n
	}
	return loss / n, dpred
}
