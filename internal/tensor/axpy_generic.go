//go:build !amd64 || purego

package tensor

func axpy(a float64, x, y []float64) { axpyGeneric(a, x, y) }

func midpoint(x, v []float64) { midpointGeneric(x, v) }

func axpyRows(dst, src, g []float64, stride, rows int, idx []int32) bool {
	return axpyRowsGeneric(dst, src, g, stride, rows, idx)
}

func maskedColumns(sums []float64, lists, ends []int32, g, y []float64, rows, n int) {
	maskedColumnsGeneric(sums, lists, ends, g, y, rows, n, 0)
}
