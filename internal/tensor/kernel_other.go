//go:build !amd64

package tensor

// Without an assembly kernel, MatMulInto and AddVecMatInto run the Go
// reference loops.
// useAVX2 is always false here; it exists so tests read the kernel choice
// the same way on every architecture.

var (
	hasAVX2 = false
	useAVX2 = false
)

func matMulKernel(dst, a, b *Matrix) { matMulGeneric(dst, a, b, 0) }

func addVecMatKernel(dst, x []float64, w *Matrix) { addVecMatGeneric(dst, x, w, 0) }
