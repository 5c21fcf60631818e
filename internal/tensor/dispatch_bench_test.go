package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMatMulKernelPaths times MatMulInto on each kernel path this
// machine has, at the graph-conv stack's products — n×11·11×32 (the first
// layer over the ACFG attributes) and n×32·32×32 (every later layer, over
// rectified activations, so about half of a's terms are zero) at the
// YANCFG mean of 47 vertices and the listing mean of 204 — so the Go path
// a machine without AVX2 runs is measured beside the AVX2 one.
func BenchmarkMatMulKernelPaths(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range []struct{ n, k, m int }{{47, 11, 32}, {47, 32, 32}, {204, 11, 32}, {204, 32, 32}} {
		a := Uniform(rng, s.n, s.k, -1, 1)
		if s.k == 32 {
			for i, v := range a.Data {
				a.Data[i] = max(v, 0)
			}
		}
		x := Uniform(rng, s.k, s.m, -1, 1)
		dst := New(s.n, s.m)
		forEachKernelPath(func(path string) {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", s.n, s.k, s.m, path), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MatMulInto(dst, a, x)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.n*s.k*s.m), "ns/mac")
			})
		})
	}
}

// BenchmarkAddVecMatKernelPaths times AddVecMatInto on each path at the AMP
// head's hidden layer, 640 → 64, and at the output layer's 64 → 9.
func BenchmarkAddVecMatKernelPaths(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	for _, s := range []struct{ in, out int }{{640, 64}, {64, 9}} {
		x := Uniform(rng, 1, s.in, 0, 1)
		w := Uniform(rng, s.in, s.out, -1, 1)
		dst := make([]float64, s.out)
		forEachKernelPath(func(path string) {
			b.Run(fmt.Sprintf("%dx%d/%s", s.in, s.out, path), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					AddVecMatInto(dst, x.Data, w)
				}
			})
		})
	}
}
