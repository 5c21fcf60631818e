// Package nn implements the neural-network substrate for the DGCNN malware
// classifier: a Volume value type (C×H×W feature maps), layers with
// hand-written forward/backward passes (Linear, ReLU, Tanh, Sigmoid,
// Dropout, Conv1D, Conv2D, MaxPool2D, AdaptiveMaxPool2D, and ConvAMP — the
// AdaptiveMaxPooling head's Conv2D → ReLU → AdaptiveMaxPool2D fused into one
// layer whose scratch does not grow with the graph), the softmax
// negative-log-likelihood loss of Eq. 5, and the Adam optimizer with L2
// regularization plus the paper's decay-on-plateau learning-rate schedule
// (Section V-B).
//
// Layers process one sample at a time; mini-batching is done by the trainer,
// which accumulates parameter gradients across samples before each optimizer
// step. This matches how the paper batches graphs of varying sizes.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Volume is a C×H×W stack of feature maps stored depth-major: element
// (c, h, w) lives at Data[(c*H+h)*W+w]. A plain vector is a 1×1×W volume; a
// matrix is a 1×H×W volume.
type Volume struct {
	C, H, W int
	Data    []float64
}

// NewVolume returns a zero-filled volume of the given shape.
func NewVolume(c, h, w int) *Volume {
	if c < 0 || h < 0 || w < 0 {
		panic(fmt.Sprintf("nn: negative volume shape %dx%dx%d", c, h, w))
	}
	return &Volume{C: c, H: h, W: w, Data: make([]float64, c*h*w)}
}

// VecVolume wraps a flat vector as a 1×1×len volume, copying the input.
func VecVolume(v []float64) *Volume {
	out := NewVolume(1, 1, len(v))
	copy(out.Data, v)
	return out
}

// MatrixVolume wraps a matrix as a 1×rows×cols volume, copying the data.
func MatrixVolume(m *tensor.Matrix) *Volume {
	out := NewVolume(1, m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Matrix converts a single-channel volume back to a matrix, copying the data.
func (v *Volume) Matrix() *tensor.Matrix {
	if v.C != 1 {
		panic(fmt.Sprintf("nn: Matrix() on %d-channel volume", v.C))
	}
	m := tensor.New(v.H, v.W)
	copy(m.Data, v.Data)
	return m
}

// At returns element (c, h, w).
func (v *Volume) At(c, h, w int) float64 { return v.Data[(c*v.H+h)*v.W+w] }

// Set assigns element (c, h, w).
func (v *Volume) Set(c, h, w int, x float64) { v.Data[(c*v.H+h)*v.W+w] = x }

// Len returns the total number of elements.
func (v *Volume) Len() int { return len(v.Data) }

// Zero sets every element of v to 0 in place.
func (v *Volume) Zero() {
	for i := range v.Data {
		v.Data[i] = 0
	}
}

// Clone returns a deep copy of v.
func (v *Volume) Clone() *Volume {
	out := NewVolume(v.C, v.H, v.W)
	copy(out.Data, v.Data)
	return out
}

// SameShape reports whether v and o have identical dimensions.
func (v *Volume) SameShape(o *Volume) bool {
	return v.C == o.C && v.H == o.H && v.W == o.W
}

// Reshape returns a view-copy of v with a new shape of equal element count.
func (v *Volume) Reshape(c, h, w int) *Volume {
	if c*h*w != v.Len() {
		panic(fmt.Sprintf("nn: reshape %d elements to %dx%dx%d", v.Len(), c, h, w))
	}
	out := NewVolume(c, h, w)
	copy(out.Data, v.Data)
	return out
}

// String renders the volume's shape and a few leading values for debugging.
func (v *Volume) String() string {
	n := len(v.Data)
	if n > 6 {
		n = 6
	}
	return fmt.Sprintf("Volume %dx%dx%d %v…", v.C, v.H, v.W, v.Data[:n])
}
