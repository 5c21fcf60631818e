package tensor

// Blocked float64 matmul kernels — the fast tier of the package's kernel
// hierarchy (naive oracle → blocked float64). Each kernel reproduces its
// oracle in oracle.go bit for bit: floating-point addition is not
// associative, so the blocking is arranged to keep the
// per-destination-cell accumulation chain identical to the naive loops —
// products are added one at a time, in strictly ascending inner-dimension
// order, with zero left-hand terms skipped exactly where the oracle skips
// them. What the blocking changes is only which cell's chain advances next:
//
//   - matMulBlocked tiles the inner dimension (matmulKB) and carries eight
//     destination cells in registers (matmulJB); partial sums are staged
//     through dst between k-tiles, so each cell still sees one sequential
//     chain over ascending k.
//   - matMulTABlocked and matMulTBBlocked are dot-product forms: each
//     destination cell's sum is built start-to-finish in a register, which
//     is the same chain the oracle's scatter loops produce, with operand
//     reads made contiguous (TB) or batched four columns wide (TA).
//
// The differential fuzz targets in into_test.go hold these kernels to the
// oracles on random shapes, random contents (including zeros, subnormals
// and negative values) and dirty destinations.

const (
	// matmulKB is the inner-dimension tile: a 2KB a-row chunk stays
	// L1-resident while the kernel sweeps b's corresponding row panel.
	matmulKB = 256
	// matmulJB is the register block width: destination cells carried in
	// scalar accumulators per inner sweep. Eight independent accumulator
	// chains keep the FP add units busy and amortize the zero-skip branch.
	matmulJB = 8
)

// matMulBlocked computes dst = a·b, bit-identical to MatMulNaiveInto.
func matMulBlocked(dst, a, b *Matrix) {
	dst.Zero()
	n, kdim, m := a.Rows, a.Cols, b.Cols
	for k0 := 0; k0 < kdim; k0 += matmulKB {
		k1 := k0 + matmulKB
		if k1 > kdim {
			k1 = kdim
		}
		for i := 0; i < n; i++ {
			arow := a.Data[i*kdim : (i+1)*kdim]
			orow := dst.Data[i*m : (i+1)*m]
			j0 := 0
			for ; j0+matmulJB <= m; j0 += matmulJB {
				acc0, acc1, acc2, acc3 := orow[j0], orow[j0+1], orow[j0+2], orow[j0+3]
				acc4, acc5, acc6, acc7 := orow[j0+4], orow[j0+5], orow[j0+6], orow[j0+7]
				bi := k0*m + j0
				for k := k0; k < k1; k, bi = k+1, bi+m {
					av := arow[k]
					if av == 0 {
						continue
					}
					brow := b.Data[bi : bi+8 : bi+8]
					acc0 += av * brow[0]
					acc1 += av * brow[1]
					acc2 += av * brow[2]
					acc3 += av * brow[3]
					acc4 += av * brow[4]
					acc5 += av * brow[5]
					acc6 += av * brow[6]
					acc7 += av * brow[7]
				}
				orow[j0], orow[j0+1], orow[j0+2], orow[j0+3] = acc0, acc1, acc2, acc3
				orow[j0+4], orow[j0+5], orow[j0+6], orow[j0+7] = acc4, acc5, acc6, acc7
			}
			for ; j0 < m; j0++ {
				acc := orow[j0]
				for k := k0; k < k1; k++ {
					av := arow[k]
					if av == 0 {
						continue
					}
					acc += av * b.Data[k*m+j0]
				}
				orow[j0] = acc
			}
		}
	}
}

// matMulTABlocked computes dst = aᵀ·b, bit-identical to MatMulTANaiveInto:
// each destination cell sums over a's rows i ascending, skipping zero
// a[i][k] terms. The dot form walks a column of a (stride a.Cols) against a
// four-column panel of b, fully defining dst without a prior Zero.
func matMulTABlocked(dst, a, b *Matrix) {
	n, ac, bc := a.Rows, a.Cols, b.Cols
	for k := 0; k < ac; k++ {
		orow := dst.Row(k)
		j0 := 0
		for ; j0+4 <= bc; j0 += 4 {
			acc0, acc1, acc2, acc3 := 0.0, 0.0, 0.0, 0.0
			ai := k
			for i := 0; i < n; i++ {
				av := a.Data[ai]
				ai += ac
				if av == 0 {
					continue
				}
				bi := i*bc + j0
				brow := b.Data[bi : bi+4 : bi+4]
				acc0 += av * brow[0]
				acc1 += av * brow[1]
				acc2 += av * brow[2]
				acc3 += av * brow[3]
			}
			orow[j0], orow[j0+1], orow[j0+2], orow[j0+3] = acc0, acc1, acc2, acc3
		}
		for ; j0 < bc; j0++ {
			acc := 0.0
			ai := k
			for i := 0; i < n; i++ {
				av := a.Data[ai]
				ai += ac
				if av == 0 {
					continue
				}
				acc += av * b.Data[i*bc+j0]
			}
			orow[j0] = acc
		}
	}
}

// matMulTBBlocked computes dst = a·bᵀ, bit-identical to MatMulTBNaiveInto.
// Both operands are read along contiguous rows (the oracle's inner loop
// strides through b column-wise), two destination cells per sweep.
func matMulTBBlocked(dst, a, b *Matrix) {
	kdim := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*kdim : (i+1)*kdim]
		orow := dst.Row(i)
		j := 0
		for ; j+2 <= b.Rows; j += 2 {
			b0 := b.Data[j*kdim : (j+1)*kdim]
			b1 := b.Data[(j+1)*kdim : (j+2)*kdim]
			acc0, acc1 := 0.0, 0.0
			for k, av := range arow {
				if av == 0 {
					continue
				}
				acc0 += av * b0[k]
				acc1 += av * b1[k]
			}
			orow[j], orow[j+1] = acc0, acc1
		}
		if j < b.Rows {
			brow := b.Data[j*kdim : (j+1)*kdim]
			acc := 0.0
			for k, av := range arow {
				if av == 0 {
					continue
				}
				acc += av * brow[k]
			}
			orow[j] = acc
		}
	}
}
