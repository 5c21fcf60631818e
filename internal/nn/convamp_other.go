//go:build !amd64

package nn

// Without an assembly kernel, ConvAMP runs the Go reference loops.

func convRowInterior(row, src, k []float64, bias float64) {
	convRowInteriorGeneric(row, src, k, bias)
}

func foldWindow(seg []float64, best float64, arg, pos int) (float64, int) {
	return foldWindowGeneric(seg, best, arg, pos)
}
