package tensor

import "fmt"

// MulTransposedInto is the dense forward product, out = x·wᵀ + b, gated by
// max(·, +0) when relu is set. Every out[i][j] is the chain Dot(w.Row(j),
// x.Row(i)) gives it — one accumulator starting at +0 that takes
// x[i][k]·w[j][k] for every k, ascending, zeros included, rounding the
// product and the sum apart — plus b[j]; the gate keeps a value > 0 and
// writes +0 for any other, −0, NaN and −Inf included. (A −0 bias changes no
// bit.) The vector kernel (multransposed_amd64.s) runs whole chains side by
// side with its lanes over the batch rows, reading each row of w once per
// eight rows of x, and applies bias and gate before its store; the scalar
// loop below stays as the definition of every bit, the fallback on other
// platforms and the whole path under the purego build tag. It panics unless
// x is B×K, w is N×K, out is B×N and b is N long; out must not alias x or w.
func MulTransposedInto(out, x, w *Matrix, b []float64, relu bool) {
	if x.Cols != w.Cols || out.Rows != x.Rows || out.Cols != w.Rows || len(b) != w.Rows ||
		len(x.Data) < x.Rows*x.Cols || len(w.Data) < w.Rows*w.Cols || len(out.Data) < out.Rows*out.Cols {
		panic(fmt.Sprintf("tensor: MulTransposedInto %dx%d · (%dx%d)ᵀ + %d biases into %dx%d",
			x.Rows, x.Cols, w.Rows, w.Cols, len(b), out.Rows, out.Cols))
	}
	mulTransposed(out, x, w, b, relu)
}

// mulTransposedGeneric is MulTransposedInto's scalar loop: four units of a
// batch row at a time, each its own accumulator, then the last
// w.Rows % 4 one at a time, each sum finished by the epilogue.
func mulTransposedGeneric(out, x, w *Matrix, b []float64, relu bool) {
	k, n := x.Cols, w.Rows
	row := func(m *Matrix, i int) []float64 { return m.Data[i*k : i*k+k] }
	epilogue := func(s float64, j int) float64 {
		if s += b[j]; relu && !(s > 0) {
			s = 0
		}
		return s
	}
	for i := 0; i < x.Rows; i++ {
		xi, o := row(x, i), out.Data[i*n:i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			w0, w1, w2, w3 := row(w, j), row(w, j+1), row(w, j+2), row(w, j+3)
			var s0, s1, s2, s3 float64
			for p, v := range xi {
				s0 += float64(v * w0[p])
				s1 += float64(v * w1[p])
				s2 += float64(v * w2[p])
				s3 += float64(v * w3[p])
			}
			o[j], o[j+1], o[j+2], o[j+3] = epilogue(s0, j), epilogue(s1, j+1), epilogue(s2, j+2), epilogue(s3, j+3)
		}
		for ; j < n; j++ {
			wj := row(w, j)
			var s float64
			for p, v := range xi {
				s += float64(v * wj[p])
			}
			o[j] = epilogue(s, j)
		}
	}
}
