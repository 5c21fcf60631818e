package nn

// The two inner loops of ConvAMP.Forward in plain Go. They run on every
// architecture without the assembly kernels and on amd64 machines without
// AVX2, and they are the reference the kernels are held to, bit for bit, by
// FuzzConvAMPKernels. Both work on a conv row laid out [x][c]: s =
// len(bias) lanes per column, OutC rounded up to a multiple of 4.
//
// Every product is written float64(k*x): an explicit conversion rounds, so
// no compiler may fuse it with the add that follows into an FMA. The chain
// must round after each multiply and each add, as Conv2D's does.

// convRowInteriorGeneric writes cells 1 … w−2 of one conv row into dst,
// every lane of each. src holds rows = len(taps)/(3s) in-bounds input rows
// of width w back to back, and taps their 3·rows taps packed [tap][c]. Per
// cell and channel: bias first, then the taps in ascending (row, kx), as
// sequential adds — Conv2D.Forward's chain.
func convRowInteriorGeneric(dst, src, taps, bias []float64, w int) {
	s := len(bias)
	rows := len(taps) / (3 * s)
	for c, b := range bias {
		if rows == 3 {
			i0, i1, i2 := src[:w], src[w:2*w], src[2*w:3*w]
			k00, k01, k02 := taps[0*s+c], taps[1*s+c], taps[2*s+c]
			k10, k11, k12 := taps[3*s+c], taps[4*s+c], taps[5*s+c]
			k20, k21, k22 := taps[6*s+c], taps[7*s+c], taps[8*s+c]
			for x := 1; x < w-1; x++ {
				acc := b
				acc = ((acc + float64(k00*i0[x-1])) + float64(k01*i0[x])) + float64(k02*i0[x+1])
				acc = ((acc + float64(k10*i1[x-1])) + float64(k11*i1[x])) + float64(k12*i1[x+1])
				acc = ((acc + float64(k20*i2[x-1])) + float64(k21*i2[x])) + float64(k22*i2[x+1])
				dst[x*s+c] = acc
			}
			continue
		}
		for x := 1; x < w-1; x++ {
			acc := b
			for r := 0; r < rows; r++ {
				in, k := src[r*w+x-1:r*w+x+2], taps[r*3*s+c:]
				acc = ((acc + float64(k[0]*in[0])) + float64(k[s]*in[1])) + float64(k[2*s]*in[2])
			}
			dst[x*s+c] = acc
		}
	}
}

// foldRowGeneric folds one conv row into the running maxima best, [ox][c],
// of one grid row whose windows are [x0[ox], x1[ox]), and their conv
// positions pos, laid out alike. Per window and lane a column replaces the
// maximum only if strictly greater, and its position base+x is recorded: so
// the first occurrence of the maximum is kept with its own bits and
// position, a NaN maximum is never replaced and a NaN column never wins.
func foldRowGeneric(best []float64, pos []int, row []float64, x0, x1 []int, base int) {
	s := len(best) / len(x0)
	for ox, lo := range x0 {
		cell, at := best[ox*s:(ox+1)*s], pos[ox*s:(ox+1)*s]
		for x := lo; x < x1[ox]; x++ {
			for c, v := range row[x*s : (x+1)*s] {
				if v > cell[c] {
					cell[c], at[c] = v, base+x
				}
			}
		}
	}
}
