package tensor

// The transposed products the backward pass runs, in Go. Each kernel
// reproduces its oracle in oracle.go bit for bit: floating-point addition
// is not associative, so each keeps the per-destination-cell accumulation
// chain identical to the naive loop's — products added one at a time, in
// strictly ascending inner-dimension order, with zero left-hand terms
// skipped exactly where the oracle skips them. Both are dot-product forms:
// each destination cell's sum is built start-to-finish in a register, which
// is the same chain the oracle's scatter loop produces, with operand reads
// made contiguous (TB) or batched four columns wide (TA). Products are
// written float64(x*y), as in oracle.go, so no FMA forms on any
// architecture.
//
// The differential fuzz targets in blocked_test.go hold these kernels to
// the oracles on random shapes, random contents (including zeros,
// subnormals and negative values) and dirty destinations.

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
				acc0 += float64(av * brow[0])
				acc1 += float64(av * brow[1])
				acc2 += float64(av * brow[2])
				acc3 += float64(av * brow[3])
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
				acc += float64(av * b.Data[i*bc+j0])
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
				acc0 += float64(av * b0[k])
				acc1 += float64(av * b1[k])
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
				acc += float64(av * brow[k])
			}
			orow[j] = acc
		}
	}
}
