//go:build !amd64

package nn

// Without an assembly kernel, ConvAMP runs the Go reference loops. useAVX2
// is always false here; it exists so tests read the kernel choice the same
// way on every architecture.

var useAVX2 = false

func convRowInterior(dst, src, taps, bias []float64, w int) {
	convRowInteriorGeneric(dst, src, taps, bias, w)
}

func foldRow(best, row []float64, x0, x1 []int, flags []uint8) bool {
	return foldRowGeneric(best, row, x0, x1, flags)
}
