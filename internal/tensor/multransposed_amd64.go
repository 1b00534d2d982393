//go:build amd64 && !purego

package tensor

// mulTransposedAVX2 is implemented in multransposed_amd64.s. It computes
// out = x·wᵀ + b, gated by max(·, +0) when relu is set, for out rows × n,
// w n × k, b n long and xT = xᵀ padded to a k × lanes matrix (lanes a
// multiple of 8, at least rows). Its caller has checked every length.
//
//go:noescape
func mulTransposedAVX2(out, xT, w, b []float64, rows, n, k, lanes int, relu bool)

// mulTransposed runs the kernel over the batch transposed into a pooled
// k × lanes matrix whose lanes past x.Rows are +0: each lane is one whole
// batch row's chain, and the padding's chains are computed and dropped.
func mulTransposed(out, x, w *Matrix, b []float64, relu bool) {
	if !hasAVX2 {
		mulTransposedGeneric(out, x, w, b, relu)
		return
	}
	rows, k := x.Rows, x.Cols
	lanes := (rows + 7) &^ 7
	xT := GetMatrix(k, lanes)
	transposePadded(xT.Data, x.Data, rows, k, lanes)
	mulTransposedAVX2(out.Data, xT.Data, w.Data, b, rows, w.Rows, k, lanes, relu)
	PutMatrix(xT)
}

// transposePadded writes the rows × cols matrix x into xT as its cols ×
// lanes transpose, the lanes past rows +0. Four rows of x go at a time, so
// each step writes four adjacent elements of an xT row.
func transposePadded(xT, x []float64, rows, cols, lanes int) {
	i := 0
	for ; i+4 <= rows; i += 4 {
		x0 := x[i*cols : i*cols+cols]
		x1, x2, x3 := x[(i+1)*cols:][:len(x0)], x[(i+2)*cols:][:len(x0)], x[(i+3)*cols:][:len(x0)]
		for p, v := range x0 {
			t := xT[p*lanes+i:][:4:4]
			t[0], t[1], t[2], t[3] = v, x1[p], x2[p], x3[p]
		}
	}
	for ; i < lanes; i++ {
		for p := 0; p < cols; p++ {
			v := 0.0
			if i < rows {
				v = x[i*cols+p]
			}
			xT[p*lanes+i] = v
		}
	}
}
