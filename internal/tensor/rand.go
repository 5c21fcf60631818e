package tensor

import (
	"math"
	"math/rand"
)

// GlorotUniform fills a new rows x cols matrix with samples from the Glorot
// (Xavier) uniform distribution U(-limit, limit), limit = sqrt(6/(fanIn+fanOut)).
// It is the standard initialization for the dense and graph-convolution
// weights in the model.
func GlorotUniform(rng *rand.Rand, rows, cols int) *Matrix {
	limit := 0.0
	if rows+cols > 0 {
		limit = math.Sqrt(6.0 / float64(rows+cols))
	}
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return m
}

// Uniform fills a new rows x cols matrix with samples from U(lo, hi).
func Uniform(rng *rand.Rand, rows, cols int, lo, hi float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = lo + rng.Float64()*(hi-lo)
	}
	return m
}
