//go:build !amd64 || purego

package tensor

func mulTransposed(out, x, w *Matrix) { mulTransposedGeneric(out, x, w) }
