package tensor

import "fmt"

// MaskedColumns is the column pass of a Dense layer's backward over its
// rows × n output gradient g: unit j passes row i's gradient back when y
// (a fused ReLU's output) has y[i][j] > 0, or always when y is nil. It
// writes sums[j] = +0 + g'[0][j] + … + g'[rows−1][j], g' being g with the
// gradients that do not pass gated to +0 (adding one changes no bit: a
// chain from +0 is never −0), and lists in lists[j·rows : ends[j]],
// ascending, the rows whose passed gradient is non-zero, NaN included. The
// vector kernel (maskedcols_amd64.s) walks four columns at a time down the
// rows; the scalar loop below stays as the definition of every bit, the
// fallback on other platforms and the whole path under the purego build
// tag. It panics unless y is nil or g's shape, sums and ends are n long
// and lists holds n·rows entries.
func MaskedColumns(sums []float64, lists, ends []int32, g, y *Matrix) {
	rows, n := g.Rows, g.Cols
	yd, yFits := []float64(nil), y == nil
	if y != nil && y.Rows == rows && y.Cols == n && len(y.Data) >= rows*n {
		yd, yFits = y.Data[:rows*n], true
	}
	if !yFits || len(g.Data) < rows*n || len(sums) != n || len(ends) != n || len(lists) < rows*n {
		panic(fmt.Sprintf("tensor: MaskedColumns over a %dx%d gradient (%d elements) into %d sums, %d list entries and %d ends (mask fits: %v)",
			rows, n, len(g.Data), len(sums), len(lists), len(ends), yFits))
	}
	maskedColumns(sums, lists[:rows*n], ends, g.Data[:rows*n], yd, rows, n)
}

// maskedColumnsGeneric is MaskedColumns' scalar loop over the columns from
// column from on: one walk down each column, its sum in one accumulator.
func maskedColumnsGeneric(sums []float64, lists, ends []int32, g, y []float64, rows, n, from int) {
	for j := from; j < n; j++ {
		s, e := 0.0, j*rows
		for i, q := 0, j; i < rows; i, q = i+1, q+n {
			v := g[q]
			if y != nil && !(y[q] > 0) {
				v = 0
			}
			s += v
			lists[e] = int32(i)
			if v != 0 {
				e++
			}
		}
		sums[j], ends[j] = s, int32(e)
	}
}
