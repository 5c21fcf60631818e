package tensor

// This file holds the straight-loop matmul kernels. They are the ground
// truth of the bit-determinism contract: every faster kernel must reproduce
// its loop here bit for bit on every input, a property enforced by the
// differential fuzz targets of into_test.go and blocked_test.go. The loops
// therefore define, operationally, what "accumulation order per output
// cell" means for this package:
//
//   - dst[i][j] for MatMul receives Σₖ a[i][k]·b[k][j] with k strictly
//     ascending and a zero a[i][k] contributing nothing (the term is
//     skipped, not added — skipping and adding differ in NaN/Inf
//     propagation, so the skip is part of the contract);
//   - MatMulTA accumulates over a's rows i ascending with the same skip;
//   - MatMulTB accumulates over k ascending with the same skip.
//
// Every product is written float64(x*y): an explicit conversion rounds, so
// no compiler may fuse it with the add that follows into an FMA, and the
// chain rounds after each multiply and each add on every architecture.
//
// The oracles share the dimension/aliasing panics with the fast kernels via
// the checked entry points, so the fuzz harness can drive both
// implementations through one validated front door.

// matMulGeneric is the ikj loop of dst = a·b over columns j0 … b.Cols−1 of
// dst: MatMulInto's Go path and, from j0 = 0, its reference. Each cell
// starts at +0.
func matMulGeneric(dst, a, b *Matrix, j0 int) {
	m := b.Cols
	for i := 0; i < a.Rows; i++ {
		orow := dst.Data[i*m+j0 : (i+1)*m]
		clear(orow)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Data[k*m+j0 : (k+1)*m] {
				orow[j] += float64(av * bv)
			}
		}
	}
}

// addVecMatGeneric is the loop of dst += x·w over columns j0 … w.Cols−1:
// AddVecMatInto's Go path and, from j0 = 0, its reference. Each cell adds
// x[i]·w[i][j] for i ascending, every term, zeros included.
func addVecMatGeneric(dst, x []float64, w *Matrix, j0 int) {
	m := w.Cols
	d := dst[j0:m]
	for i, xv := range x {
		for j, wv := range w.Data[i*m+j0 : (i+1)*m] {
			d[j] += float64(xv * wv)
		}
	}
}

// MatMulNaiveInto is the reference triple loop for dst = a·b in ikj order.
// Identical contract to MatMulInto; kept for differential testing.
func MatMulNaiveInto(dst, a, b *Matrix) {
	checkMatMul(dst, a, b)
	matMulGeneric(dst, a, b, 0)
}

// MatMulTANaiveInto is the reference loop for dst = aᵀ·b: contribution order
// per destination element is ascending over a's rows. Identical contract to
// MatMulTAInto; kept for differential testing.
func MatMulTANaiveInto(dst, a, b *Matrix) {
	checkMatMulTA(dst, a, b)
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		brow := b.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			orow := dst.Row(k)
			for j, bv := range brow {
				orow[j] += float64(av * bv)
			}
		}
	}
}

// MatMulTBNaiveInto is the reference loop for dst = a·bᵀ: the summation order
// per destination element is ascending over the shared inner dimension.
// Identical contract to MatMulTBInto; kept for differential testing.
func MatMulTBNaiveInto(dst, a, b *Matrix) {
	checkMatMulTB(dst, a, b)
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			for j := 0; j < b.Rows; j++ {
				orow[j] += float64(av * b.Data[j*b.Cols+k])
			}
		}
	}
}
