package tensor

// hasAVX2 is what the CPU and the OS offer, read once at package init.
var hasAVX2 = cpuHasAVX2()

// useAVX2 selects MatMulInto's kernel: the AVX2 assembly of kernel_amd64.s
// where hasAVX2 holds, the Go reference loop everywhere else. Tests swap it
// to run the Go path.
var useAVX2 = hasAVX2

// cpuHasAVX2 reports whether AVX2 instructions may run: the CPU has AVX
// and AVX2, and the OS saves the XMM and YMM registers across context
// switches (OSXSAVE set, XCR0 bits 1 and 2).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// matMulAVX2 is matMulGeneric, or with acc ≠ 0 addVecMatGeneric, over
// columns 0 … cols−1 of dst with the columns side by side: four per YMM
// register, up to 32 per pass over a's row. Per lane the chain is +0, or
// dst's value, then for k ascending one VMULPD and one VADDPD — with no
// zero test, which is exact for matMulGeneric only where b is finite (see
// matMulKernel). cols is a multiple of 4; the caller checks the lengths.
//
//go:noescape
func matMulAVX2(dst, a, b []float64, n, k, m, cols, acc int)

// matMulKernel computes dst = a·b: the AVX2 kernel over the columns that
// fill whole registers and the Go loop over the rest, or the Go loop alone.
//
// The kernel adds a zero a[i][k]'s products where the oracle skips them,
// and that changes no bit when b is finite: ±0·b[k][j] is ±0, and adding
// ±0 leaves every accumulator as it is — +0 + −0 is +0, and an
// accumulator that starts at +0 never becomes −0, since a sum is −0 only
// when both its terms are. Only an infinite or NaN b[k][j] makes the term
// NaN, so a b holding one runs the Go loop, whose skip is explicit. The
// check reads b once, k·m values, against the kernel's n·k·m products.
func matMulKernel(dst, a, b *Matrix) {
	cols := 0
	if useAVX2 && allFinite(b.Data) {
		cols = b.Cols &^ 3
	}
	if cols > 0 {
		matMulAVX2(dst.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols, cols, 0)
	}
	if cols < b.Cols {
		matMulGeneric(dst, a, b, cols)
	}
}

// addVecMatKernel adds x·w to dst: the AVX2 kernel, its accumulators
// starting from dst, over the columns that fill whole registers and the Go
// loop over the rest, or the Go loop alone. Both add every term, so no
// value of w needs the finiteness check matMulKernel makes.
func addVecMatKernel(dst, x []float64, w *Matrix) {
	cols := 0
	if useAVX2 {
		cols = w.Cols &^ 3
	}
	if cols > 0 {
		matMulAVX2(dst, x, w.Data, 1, w.Rows, w.Cols, cols, 1)
	}
	if cols < w.Cols {
		addVecMatGeneric(dst, x, w, cols)
	}
}

// allFinite reports whether no value in xs is infinite or NaN: v−v is 0
// for every finite v and NaN otherwise, and a NaN term makes a sum NaN.
// Four sums keep four add chains in flight.
func allFinite(xs []float64) bool {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		v := xs[i : i+4 : i+4]
		s0 += v[0] - v[0]
		s1 += v[1] - v[1]
		s2 += v[2] - v[2]
		s3 += v[3] - v[3]
	}
	for _, v := range xs[i:] {
		s0 += v - v
	}
	return s0+s1+s2+s3 == 0
}
