//go:build !amd64

package nn

// Without assembly kernels, ConvAMP and Conv2D run the Go reference loops.
// useAVX2 is always false here; it exists so tests read the kernel choice
// the same way on every architecture.

var useAVX2 = false

func convRowInterior(dst, src, taps, bias []float64, w int) {
	convRowInteriorGeneric(dst, src, taps, bias, w)
}

func foldRow(best []float64, pos []int, row []float64, x0, x1 []int, base int) {
	foldRowGeneric(best, pos, row, x0, x1, base)
}

func conv2dForward(c *Conv2D, in, out *Volume) { conv2dReference(c, in, out) }
