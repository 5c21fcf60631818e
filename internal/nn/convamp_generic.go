package nn

// The two inner loops of ConvAMP.Forward in plain Go. They are the fallback
// on architectures without an assembly kernel and the reference the amd64
// kernels are held to, bit for bit, by FuzzConvAMPKernels.

// convRowInteriorGeneric writes cells 1 … len(row)−2 of one conv row. src
// holds the len(k)/3 in-bounds input rows of width len(row), back to back,
// and k their taps. Per cell: bias first, then each tap row's three taps in
// ascending kx, as sequential adds — Conv2D.Forward's chain.
func convRowInteriorGeneric(row, src, k []float64, bias float64) {
	w := len(row)
	if len(k) == 9 {
		i0, i1, i2 := src[:w], src[w:2*w], src[2*w:3*w]
		k00, k01, k02 := k[0], k[1], k[2]
		k10, k11, k12 := k[3], k[4], k[5]
		k20, k21, k22 := k[6], k[7], k[8]
		for x := 1; x < w-1; x++ {
			acc := bias
			acc = ((acc + k00*i0[x-1]) + k01*i0[x]) + k02*i0[x+1]
			acc = ((acc + k10*i1[x-1]) + k11*i1[x]) + k12*i1[x+1]
			acc = ((acc + k20*i2[x-1]) + k21*i2[x]) + k22*i2[x+1]
			row[x] = acc
		}
		return
	}
	for x := 1; x < w-1; x++ {
		acc := bias
		for r := 0; r < len(k)/3; r++ {
			s := src[r*w : (r+1)*w]
			acc = ((acc + k[r*3]*s[x-1]) + k[r*3+1]*s[x]) + k[r*3+2]*s[x+1]
		}
		row[x] = acc
	}
}

// foldWindowGeneric folds one adaptive window's row segment into the
// running winner (best, arg) of its grid cell; pos is the conv-map position
// of seg[0]. A value replaces the winner only if it is strictly greater, so
// the first occurrence of the maximum wins, a NaN winner is never replaced
// and a NaN candidate never wins.
func foldWindowGeneric(seg []float64, best float64, arg, pos int) (float64, int) {
	for t, v := range seg {
		if v > best {
			best, arg = v, pos+t
		}
	}
	return best, arg
}
