package nn

// convRowSSE2 is convRowInteriorGeneric two cells at a time: each SSE2 lane
// runs the same bias-then-taps chain of MULPD/ADDPD that the Go loop runs in
// MULSD/ADDSD, and an odd last cell runs it in MULSD/ADDSD.
//
//go:noescape
func convRowSSE2(row, src, k []float64, bias float64)

// windowMaxSSE2 returns the maximum of seg and best as the strict-> scan
// defines it — a NaN best is kept, a NaN in seg is skipped — computed over
// four lanes with MAXPD. Which of two equal values (+0 and −0) it returns is
// unspecified; foldWindow recovers the scan's exact bits from seg.
//
//go:noescape
func windowMaxSSE2(seg []float64, best float64) float64

// convRowInterior is convRowInteriorGeneric; see there for the contract.
func convRowInterior(row, src, k []float64, bias float64) {
	if rows := len(k) / 3; rows < 1 || rows > 3 || len(k) != 3*rows || len(src) < rows*len(row) {
		panic("nn: convRowInterior needs 1 to 3 tap rows of 3 taps and a full input row per tap row")
	}
	convRowSSE2(row, src, k, bias)
}

// foldWindow is foldWindowGeneric. The kernel finds the new maximum; if it
// beats best, the first column holding it is the scan's winner — every
// earlier column is smaller or NaN — and its bits, not the kernel's, are
// returned, so a −0 that precedes a +0 wins as it does in the scan.
func foldWindow(seg []float64, best float64, arg, pos int) (float64, int) {
	m := windowMaxSSE2(seg, best)
	if !(m > best) {
		return best, arg
	}
	t := 0
	for !(seg[t] >= m) { // nothing in seg exceeds m, and NaN compares false
		t++
	}
	return seg[t], pos + t
}
