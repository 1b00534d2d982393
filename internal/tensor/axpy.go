package tensor

import "fmt"

// The multiply-add kernels every dense product runs on: Axpy, and AxpyRows,
// which applies a list of rows four at a time per pass over the destination.
// Each destination element is its own chain of additions, so the kernels run
// those chains side by side — in vector lanes where the CPU has them
// (axpy_amd64.s, VMULPD then VADDPD, never a fused multiply-add) — and every
// element receives the same roundings, in the same order, as the scalar
// loops below, which stay as the definition of every bit, the fallback on
// other platforms and the whole path under the purego build tag.

// Axpy computes y += a*x element-wise. It panics if lengths differ.
func Axpy(a float64, x, y []float64) {
	assertSameLen(len(x), len(y))
	axpy(a, x, y)
}

// AxpyRows computes dst += g[p·stride]·src.Row(p) for each p in idx, in list
// order. Rows go through one pass over dst four at a time,
//
//	dst[k] = (((dst[k] + g0·r0[k]) + g1·r1[k]) + g2·r2[k]) + g3·r3[k],
//
// and the last len(idx) % 4 one at a time, so every dst[k] receives exactly
// the additions one Axpy per row would give it, in the same order, with a
// quarter of the loads and stores. It panics unless len(dst) == src.Cols and
// every p indexes a row of src and, times stride, an element of g.
func AxpyRows(dst []float64, src *Matrix, g []float64, stride int, idx []int32) {
	assertSameLen(len(dst), src.Cols)
	// rows counts the leading rows of src that have a weight in g; the
	// kernels check every p against it as they reach it.
	rows := src.Rows
	switch {
	case len(g) == 0:
		rows = 0
	case stride > 0:
		rows = min(rows, (len(g)-1)/stride+1)
	}
	if stride < 0 || len(src.Data) < src.Rows*src.Cols || !axpyRows(dst, src.Data, g, stride, rows, idx) {
		panic(fmt.Sprintf("tensor: AxpyRows over a %dx%d matrix (%d elements) and %d weights at stride %d: row index out of range",
			src.Rows, src.Cols, len(src.Data), len(g), stride))
	}
}

// axpyGeneric is Axpy's scalar loop. Unrolling by four is bit-transparent:
// each element's arithmetic is independent.
func axpyGeneric(a float64, x, y []float64) {
	y = y[:len(x)]
	n := len(x) &^ 3
	for i := 0; i < n; i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for i := n; i < len(x); i++ {
		y[i] += a * x[i]
	}
}

// axpyRowsGeneric is AxpyRows' scalar loop over src's row-major data, whose
// rows are len(dst) long. It returns false, having applied the groups
// before it, at the first group holding a p outside [0, rows).
func axpyRowsGeneric(dst, src, g []float64, stride, rows int, idx []int32) bool {
	n := len(dst)
	row := func(p int32) []float64 { return src[int(p)*n : int(p)*n+n] }
	for ; len(idx) >= 4; idx = idx[4:] {
		if min(idx[0], idx[1], idx[2], idx[3]) < 0 || int(max(idx[0], idx[1], idx[2], idx[3])) >= rows {
			return false
		}
		g0, g1, g2, g3 := g[int(idx[0])*stride], g[int(idx[1])*stride], g[int(idx[2])*stride], g[int(idx[3])*stride]
		r0, r1, r2, r3 := row(idx[0]), row(idx[1]), row(idx[2]), row(idx[3])
		for k, v := range dst {
			v += g0 * r0[k]
			v += g1 * r1[k]
			v += g2 * r2[k]
			v += g3 * r3[k]
			dst[k] = v
		}
	}
	for _, p := range idx {
		if p < 0 || int(p) >= rows {
			return false
		}
		axpyGeneric(g[int(p)*stride], row(p), dst)
	}
	return true
}
