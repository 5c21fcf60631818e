package nn

// useAVX2 selects ConvAMP's kernels, once, from what the CPU and the OS
// offer: the AVX2 assembly below where both do, the Go reference loops of
// convamp_generic.go everywhere else. Tests swap it to run the Go path.
var useAVX2 = cpuHasAVX2()

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

// convRowAVX2 is convRowInteriorGeneric with the lanes of a column side by
// side: four channels per YMM register, up to sixteen channels and two
// cells per pass, each lane running the same bias-then-taps chain of
// VMULPD and VADDPD. Channels past the last block of sixteen run four at a
// time.
//
//go:noescape
func convRowAVX2(dst, src, taps, bias []float64, w, rows int)

// foldRowAVX2 is foldRowGeneric with four lanes per VMAXPD, the column as
// the operand that wins when greater. It returns the OR of every flags
// byte.
//
//go:noescape
func foldRowAVX2(best, row []float64, x0, x1 []int, flags []uint8, s int) int

// convRowInterior is convRowInteriorGeneric; see there for the contract.
func convRowInterior(dst, src, taps, bias []float64, w int) {
	if !useAVX2 {
		convRowInteriorGeneric(dst, src, taps, bias, w)
		return
	}
	s := len(bias)
	if s == 0 || s%4 != 0 || w < 3 || len(dst) < w*s {
		panic("nn: convRowInterior needs lanes in fours and a row of at least 3 columns")
	}
	rows := len(taps) / (3 * s)
	if rows < 1 || rows > 3 || len(taps) != 3*rows*s || len(src) < rows*w {
		panic("nn: convRowInterior needs 1 to 3 tap rows of 3 taps and a full input row per tap row")
	}
	convRowAVX2(dst, src, taps, bias, w, rows)
}

// foldRow is foldRowGeneric; see there for the contract.
func foldRow(best, row []float64, x0, x1 []int, flags []uint8) bool {
	if !useAVX2 {
		return foldRowGeneric(best, row, x0, x1, flags)
	}
	if len(x0) == 0 || len(x1) != len(x0) {
		panic("nn: foldRow needs one end per window start")
	}
	s := len(best) / len(x0)
	if s == 0 || s%4 != 0 || len(best) != s*len(x0) || len(flags) < len(best)/4 {
		panic("nn: foldRow needs lanes in fours and one flag byte per four lanes")
	}
	cols := len(row) / s
	for ox, lo := range x0 {
		if lo < 0 || lo > x1[ox] || x1[ox] > cols {
			panic("nn: foldRow window outside the row")
		}
	}
	return foldRowAVX2(best, row, x0, x1, flags, s) != 0
}
