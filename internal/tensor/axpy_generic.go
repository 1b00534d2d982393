//go:build !amd64 || purego

package tensor

func axpy(a float64, x, y []float64) { axpyGeneric(a, x, y) }

func axpyRows(dst, src, g []float64, stride, rows int, idx []int32) bool {
	return axpyRowsGeneric(dst, src, g, stride, rows, idx)
}
