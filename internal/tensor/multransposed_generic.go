//go:build !amd64 || purego

package tensor

func mulTransposed(out, x, w *Matrix, b []float64, relu bool) {
	mulTransposedGeneric(out, x, w, b, relu)
}
