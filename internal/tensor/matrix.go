package tensor

import "fmt"

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero-initialized Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix size %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFrom wraps data as a rows×cols matrix without copying. It panics if
// len(data) != rows*cols.
func MatrixFrom(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: Clone(m.Data)}
}

// TransposeInto writes srcᵀ into dst, typically a GetMatrix buffer. It
// panics unless dst is src.Cols × src.Rows. dst must not alias src.
func TransposeInto(dst, src *Matrix) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto %dx%d into %dx%d", src.Rows, src.Cols, dst.Rows, dst.Cols))
	}
	// A strip of 16 src columns at a time, so the 16 dst rows it writes stay
	// in cache across all src rows, and 4×4 blocks within it: four dst rows
	// take four consecutive elements each. A plain row-at-a-time pass touches
	// one element per dst cache line and measured five times as slow on a
	// 256×256 Wᵀ.
	const strip = 16
	r, c := src.Rows, src.Cols
	for j0 := 0; j0 < c; j0 += strip {
		j1 := min(j0+strip, c)
		i := 0
		for ; i+4 <= r; i += 4 {
			s0, s1 := src.Data[i*c:(i+1)*c], src.Data[(i+1)*c:(i+2)*c]
			s2, s3 := src.Data[(i+2)*c:(i+3)*c], src.Data[(i+3)*c:(i+4)*c]
			j := j0
			for ; j+4 <= j1; j += 4 {
				a, b, e, f := s0[j:j+4:j+4], s1[j:j+4:j+4], s2[j:j+4:j+4], s3[j:j+4:j+4]
				d0, d1 := dst.Data[j*r+i:][:4:4], dst.Data[(j+1)*r+i:][:4:4]
				d2, d3 := dst.Data[(j+2)*r+i:][:4:4], dst.Data[(j+3)*r+i:][:4:4]
				d0[0], d0[1], d0[2], d0[3] = a[0], b[0], e[0], f[0]
				d1[0], d1[1], d1[2], d1[3] = a[1], b[1], e[1], f[1]
				d2[0], d2[1], d2[2], d2[3] = a[2], b[2], e[2], f[2]
				d3[0], d3[1], d3[2], d3[3] = a[3], b[3], e[3], f[3]
			}
			for ; j < j1; j++ {
				d := dst.Data[j*r+i:][:4:4]
				d[0], d[1], d[2], d[3] = s0[j], s1[j], s2[j], s3[j]
			}
		}
		for ; i < r; i++ {
			for j := j0; j < j1; j++ {
				dst.Data[j*r+i] = src.Data[i*c+j]
			}
		}
	}
}

// MatMul returns a*b. It panics on incompatible shapes.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a*b, reusing dst's storage. dst must not alias a
// or b. The k-loop is hoisted outside the j-loop (ikj order) so the inner
// loop streams over contiguous rows of b — this is the difference between a
// usable CPU conv layer and an unusable one.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MatMulInto shape mismatch")
	}
	Fill(dst.Data, 0)
	for i := 0; i < a.Rows; i++ {
		aRow := a.Row(i)
		dRow := dst.Row(i)
		for k, aik := range aRow {
			if aik == 0 {
				continue
			}
			Axpy(aik, b.Row(k), dRow)
		}
	}
}

// MatVec returns a·x for a column vector x.
func MatVec(a *Matrix, x []float64) []float64 {
	if a.Cols != len(x) {
		panic("tensor: MatVec shape mismatch")
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		out[i] = Dot(a.Row(i), x)
	}
	return out
}

// VecMat returns xᵀ·a as a row vector for a row vector x.
func VecMat(x []float64, a *Matrix) []float64 {
	if a.Rows != len(x) {
		panic("tensor: VecMat shape mismatch")
	}
	out := make([]float64, a.Cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		Axpy(xi, a.Row(i), out)
	}
	return out
}

// IsDoublyStochastic reports whether every entry of m is non-negative and
// every row and column sums to 1 within tol. Gossip matrices W_t must satisfy
// this (Assumption 2 of the paper).
func (m *Matrix) IsDoublyStochastic(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	colSums := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		rowSum := 0.0
		for j, v := range m.Row(i) {
			if v < -tol {
				return false
			}
			rowSum += v
			colSums[j] += v
		}
		if abs(rowSum-1) > tol {
			return false
		}
	}
	for _, s := range colSums {
		if abs(s-1) > tol {
			return false
		}
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
