package core

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// Scaler standardizes vertex attributes column-wise (zero mean, unit
// variance) using statistics fitted on the training set. Raw Table I
// counters span several orders of magnitude across blocks; standardization
// keeps the graph-convolution activations in a trainable range. The scaler
// is fitted once on training data and applied unchanged at prediction time,
// so no test information leaks into training.
type Scaler struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

// FitScaler computes per-attribute mean and standard deviation over all
// vertices of all training graphs. It makes two passes over src, fetching
// each sample on demand so fitting never needs the corpus resident; the
// accumulation order is the source order, so equal sample sequences fit
// bit-identical statistics whatever backs them. An empty source fits
// nothing and returns nil. A source error is returned wrapped the way
// RunEpoch wraps it, naming the sample.
func FitScaler(src dataset.SampleSource) (*Scaler, error) {
	if src.Len() == 0 {
		return nil, nil
	}
	at := func(i int) (*dataset.Sample, error) {
		smp, err := src.At(i)
		if err != nil {
			return nil, fmt.Errorf("core: training sample %d: %w", i, err)
		}
		return smp, nil
	}
	first, err := at(0)
	if err != nil {
		return nil, err
	}
	dim := first.ACFG.Attrs.Cols
	s := &Scaler{Mean: make([]float64, dim), Std: make([]float64, dim)}
	count := 0.0
	for i := 0; i < src.Len(); i++ {
		smp, err := at(i)
		if err != nil {
			return nil, err
		}
		a := smp.ACFG
		for r := 0; r < a.Attrs.Rows; r++ {
			row := a.Attrs.Row(r)
			for c, v := range row {
				s.Mean[c] += v
			}
			count++
		}
	}
	if count == 0 {
		for c := range s.Std {
			s.Std[c] = 1
		}
		return s, nil
	}
	for c := range s.Mean {
		s.Mean[c] /= count
	}
	for i := 0; i < src.Len(); i++ {
		smp, err := at(i)
		if err != nil {
			return nil, err
		}
		a := smp.ACFG
		for r := 0; r < a.Attrs.Rows; r++ {
			row := a.Attrs.Row(r)
			for c, v := range row {
				d := v - s.Mean[c]
				s.Std[c] += d * d
			}
		}
	}
	for c := range s.Std {
		s.Std[c] = math.Sqrt(s.Std[c] / count)
		if s.Std[c] < 1e-9 {
			s.Std[c] = 1
		}
	}
	return s, nil
}

// TransformInto writes the standardized copy of m into dst (same shape,
// fully overwritten, so dirty scratch buffers are valid destinations). It
// must not be called on a nil scaler: without fitted statistics there is
// nothing to write, and the hot path passes the input through untouched
// instead.
func (s *Scaler) TransformInto(dst, m *tensor.Matrix) {
	if dst.Rows != m.Rows || dst.Cols != m.Cols {
		panic(fmt.Sprintf("core: scaler destination %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		src, d := m.Row(i), dst.Row(i)
		for c, v := range src {
			d[c] = (v - s.Mean[c]) / s.Std[c]
		}
	}
}
