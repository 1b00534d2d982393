package tensor

import "fmt"

// MulTransposedInto is the dense forward product, out = x·wᵀ, with every
// out[i][j] the chain Dot(w.Row(j), x.Row(i)) gives it: one accumulator
// starting at +0 that takes x[i][k]·w[j][k] for every k, ascending, zeros
// included, rounding the product and the sum apart. The vector kernel
// (multransposed_amd64.s) runs whole chains side by side with its lanes over
// the batch rows, reading each row of w once per eight rows of x; the
// scalar loop below stays as the definition of every bit, the fallback on
// other platforms and the whole path under the purego build tag. It panics
// unless x is B×K, w is N×K and out is B×N; out must not alias x or w.
func MulTransposedInto(out, x, w *Matrix) {
	if x.Cols != w.Cols || out.Rows != x.Rows || out.Cols != w.Rows ||
		len(x.Data) < x.Rows*x.Cols || len(w.Data) < w.Rows*w.Cols || len(out.Data) < out.Rows*out.Cols {
		panic(fmt.Sprintf("tensor: MulTransposedInto %dx%d · (%dx%d)ᵀ into %dx%d",
			x.Rows, x.Cols, w.Rows, w.Cols, out.Rows, out.Cols))
	}
	mulTransposed(out, x, w)
}

// mulTransposedGeneric is MulTransposedInto's scalar loop: four units of a
// batch row at a time, each its own accumulator, then the last
// w.Rows % 4 one at a time.
func mulTransposedGeneric(out, x, w *Matrix) {
	k, n := x.Cols, w.Rows
	row := func(m *Matrix, i int) []float64 { return m.Data[i*k : i*k+k] }
	for i := 0; i < x.Rows; i++ {
		xi, o := row(x, i), out.Data[i*n:i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			w0, w1, w2, w3 := row(w, j), row(w, j+1), row(w, j+2), row(w, j+3)
			var s0, s1, s2, s3 float64
			for p, v := range xi {
				s0 += v * w0[p]
				s1 += v * w1[p]
				s2 += v * w2[p]
				s3 += v * w3[p]
			}
			o[j], o[j+1], o[j+2], o[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			wj := row(w, j)
			var s float64
			for p, v := range xi {
				s += v * wj[p]
			}
			o[j] = s
		}
	}
}
