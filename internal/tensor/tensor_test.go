package tensor

import (
	"fmt"
	"math"
	"testing"

	"sapspsgd/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v, want %v", y, want)
		}
	}
}

func TestAxpyLenMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Axpy(1, []float64{1}, []float64{1, 2})
}

// TestFillWritesItsBits: every fill value lands in every element with its
// own bits — +0 through clear, -0 (which clear would turn into +0), NaN and
// ordinary values through the loop — over every tail of the unrolled loop.
func TestFillWritesItsBits(t *testing.T) {
	for _, x := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(-1), 5e-324, -2.5} {
		for n := 0; n <= 9; n++ {
			v := make([]float64, n+1)
			for i := range v {
				v[i] = 7
			}
			Fill(v[:n], x)
			for i, got := range v[:n] {
				if math.Float64bits(got) != math.Float64bits(x) {
					t.Fatalf("Fill(%d, %v): [%d] = %#x, want %#x", n, x, i, math.Float64bits(got), math.Float64bits(x))
				}
			}
			if v[n] != 7 {
				t.Fatalf("Fill(%d, %v) wrote past its slice", n, x)
			}
		}
	}
}

func TestDotNorm(t *testing.T) {
	a := []float64{3, 4}
	if got := Dot(a, a); got != 25 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestArgMax(t *testing.T) {
	tests := []struct {
		v    []float64
		want int
	}{
		{[]float64{1}, 0},
		{[]float64{1, 3, 2}, 1},
		{[]float64{-5, -1, -2}, 1},
		{[]float64{2, 2, 2}, 0},
	}
	for _, tc := range tests {
		if got := ArgMax(tc.v); got != tc.want {
			t.Fatalf("ArgMax(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

// matMul returns a*b in a new matrix.
func matMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

func TestMatMulSmall(t *testing.T) {
	a := MatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := MatrixFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := matMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		a := NewMatrix(m, k)
		b := NewMatrix(k, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		got := matMul(a, b)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				for kk := 0; kk < k; kk++ {
					want += a.Row(i)[kk] * b.Row(kk)[j]
				}
				if !almostEq(got.Row(i)[j], want, 1e-9) {
					t.Fatalf("MatMul[%d,%d] = %v, want %v", i, j, got.Row(i)[j], want)
				}
			}
		}
	}
}

// TestTranspose covers every ragged edge of TransposeInto's 4×4 blocks and
// 16-column strips.
func TestTranspose(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 22, 35}
	for _, rows := range sizes {
		for _, cols := range sizes {
			a := NewMatrix(rows, cols)
			for i := range a.Data {
				a.Data[i] = float64(i + 1)
			}
			at := GetMatrix(cols, rows)
			Fill(at.Data, math.NaN()) // a pooled buffer's contents are arbitrary
			TransposeInto(at, a)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					if a.Row(i)[j] != at.Row(j)[i] {
						t.Fatalf("%dx%d: transpose[%d][%d] = %v, want %v", rows, cols, j, i, at.Row(j)[i], a.Row(i)[j])
					}
				}
			}
			PutMatrix(at)
		}
	}
	a := NewMatrix(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("TransposeInto into a 2x3 matrix did not panic")
		}
	}()
	TransposeInto(a, a)
}

func TestIsDoublyStochastic(t *testing.T) {
	tests := []struct {
		name string
		m    *Matrix
		want bool
	}{
		{"identity", MatrixFrom(2, 2, []float64{1, 0, 0, 1}), true},
		{"pairwise", MatrixFrom(2, 2, []float64{0.5, 0.5, 0.5, 0.5}), true},
		{"rowsOnly", MatrixFrom(2, 2, []float64{0.9, 0.1, 0.9, 0.1}), false},
		{"negative", MatrixFrom(2, 2, []float64{1.5, -0.5, -0.5, 1.5}), false},
		{"nonsquare", MatrixFrom(1, 2, []float64{0.5, 0.5}), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.m.IsDoublyStochastic(1e-9); got != tc.want {
				t.Fatalf("IsDoublyStochastic = %v, want %v", got, tc.want)
			}
		})
	}
}

// naiveConv computes a direct 2-D convolution for cross-checking Im2Col.
func naiveConv(img []float64, c, h, w int, weights []float64, outC, kh, kw, stride, pad int) []float64 {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	out := make([]float64, outC*outH*outW)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				s := 0.0
				for ic := 0; ic < c; ic++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy := oy*stride + ky - pad
							ix := ox*stride + kx - pad
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							wv := weights[((oc*c+ic)*kh+ky)*kw+kx]
							s += wv * img[ic*h*w+iy*w+ix]
						}
					}
				}
				out[(oc*outH+oy)*outW+ox] = s
			}
		}
	}
	return out
}

func TestIm2ColMatchesNaiveConv(t *testing.T) {
	r := rng.New(8)
	cases := []struct {
		c, h, w, outC, k, stride, pad int
	}{
		{1, 5, 5, 2, 3, 1, 0},
		{1, 5, 5, 2, 3, 1, 1},
		{3, 8, 8, 4, 3, 1, 1},
		{2, 7, 9, 3, 3, 2, 1},
		{3, 6, 6, 2, 5, 1, 2},
		{1, 4, 4, 1, 1, 1, 0},
	}
	for _, tc := range cases {
		img := make([]float64, tc.c*tc.h*tc.w)
		for i := range img {
			img[i] = r.NormFloat64()
		}
		weights := make([]float64, tc.outC*tc.c*tc.k*tc.k)
		for i := range weights {
			weights[i] = r.NormFloat64()
		}
		outH := ConvOutSize(tc.h, tc.k, tc.stride, tc.pad)
		outW := ConvOutSize(tc.w, tc.k, tc.stride, tc.pad)
		col := NewMatrix(tc.c*tc.k*tc.k, outH*outW)
		Im2Col(img, tc.c, tc.h, tc.w, tc.k, tc.k, tc.stride, tc.pad, col)
		wm := MatrixFrom(tc.outC, tc.c*tc.k*tc.k, weights)
		got := matMul(wm, col)
		want := naiveConv(img, tc.c, tc.h, tc.w, weights, tc.outC, tc.k, tc.k, tc.stride, tc.pad)
		for i := range want {
			if !almostEq(got.Data[i], want[i], 1e-9) {
				t.Fatalf("case %+v: conv mismatch at %d: %v vs %v", tc, i, got.Data[i], want[i])
			}
		}
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> for all x, y — the defining property
	// of the adjoint, which is exactly what backprop through conv needs.
	r := rng.New(21)
	const c, h, w, k, stride, pad = 2, 6, 6, 3, 1, 1
	outH := ConvOutSize(h, k, stride, pad)
	outW := ConvOutSize(w, k, stride, pad)
	for trial := 0; trial < 10; trial++ {
		x := make([]float64, c*h*w)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		y := NewMatrix(c*k*k, outH*outW)
		for i := range y.Data {
			y.Data[i] = r.NormFloat64()
		}
		colX := NewMatrix(c*k*k, outH*outW)
		Im2Col(x, c, h, w, k, k, stride, pad, colX)
		lhs := Dot(colX.Data, y.Data)
		xBack := make([]float64, c*h*w)
		Col2Im(y, c, h, w, k, k, stride, pad, xBack)
		rhs := Dot(x, xBack)
		if !almostEq(lhs, rhs, 1e-9*math.Max(1, math.Abs(lhs))) {
			t.Fatalf("adjoint property violated: %v vs %v", lhs, rhs)
		}
	}
}

// poolRetains reports whether a Put buffer comes back on the next Get. It
// does not under the race detector, where sync.Pool drops a quarter of all
// Puts on purpose; the allocation pins below mean nothing there.
func poolRetains() bool {
	for i := 0; i < 32; i++ {
		m := GetMatrix(1, 1)
		PutMatrix(m)
		again := GetMatrix(1, 1)
		PutMatrix(again)
		if again != m {
			return false
		}
	}
	return true
}

func TestPoolOneMechanism(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool is dropping Puts (race detector)")
	}
	// A recycled vector serves a matrix of the same class and back: one set
	// of size classes, one kind of pooled buffer.
	v := GetVecRaw(100) // class 128
	if len(v) != 100 || cap(v) != 128 {
		t.Fatalf("GetVecRaw(100): len %d cap %d, want 100/128", len(v), cap(v))
	}
	v[0] = 42
	PutVec(v)
	m := GetMatrix(9, 13) // 117 → class 128
	if m.Rows != 9 || m.Cols != 13 || len(m.Data) != 117 || &m.Data[0] != &v[0] {
		t.Fatalf("GetMatrix(9,13) = %dx%d len %d, reused=%v", m.Rows, m.Cols, len(m.Data), &m.Data[0] == &v[0])
	}
	PutMatrix(m)
	if z := GetVec(128); &z[0] != &v[0] || z[0] != 0 {
		t.Fatalf("GetVec(128): reused=%v z[0]=%v, want the recycled buffer zeroed", &z[0] == &v[0], z[0])
	}

	// A buffer the pool did not hand out is dropped unless its capacity is
	// a class size; an empty vector is a no-op.
	foreign := NewMatrix(3, 5)
	PutMatrix(foreign)
	if got := GetMatrix(3, 5); got == foreign || &got.Data[0] == &foreign.Data[0] {
		t.Fatal("a 15-element NewMatrix buffer was pooled under class 16")
	}
	PutVec(nil)
	if e := GetMatrix(0, 7); e.Rows != 0 || e.Cols != 7 || len(e.Data) != 0 {
		t.Fatalf("GetMatrix(0,7) = %+v", e)
	}
}

func TestPoolGetPutZeroAlloc(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool is dropping Puts (race detector)")
	}
	PutVec(GetVecRaw(1000))
	if n := testing.AllocsPerRun(100, func() { PutVec(GetVecRaw(1000)) }); n != 0 {
		t.Errorf("GetVecRaw/PutVec pair: %v allocs, want 0", n)
	}
	PutMatrix(GetMatrix(32, 64))
	if n := testing.AllocsPerRun(100, func() { PutMatrix(GetMatrix(32, 64)) }); n != 0 {
		t.Errorf("GetMatrix/PutMatrix pair: %v allocs, want 0", n)
	}
	// Several out at once, as a training step holds them.
	var held [6]*Matrix
	step := func() {
		for i := range held {
			held[i] = GetMatrix(32, 64)
		}
		for _, m := range held {
			PutMatrix(m)
		}
	}
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("six matrices in flight: %v allocs per step, want 0", n)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	r := rng.New(1)
	a := NewMatrix(128, 128)
	c := NewMatrix(128, 128)
	for i := range a.Data {
		a.Data[i] = r.Float64()
		c.Data[i] = r.Float64()
	}
	dst := NewMatrix(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, c)
	}
}

func BenchmarkTransposeInto(b *testing.B) {
	for _, s := range [][2]int{{64, 64}, {10, 64}, {256, 256}} {
		b.Run(fmt.Sprintf("%dx%d", s[0], s[1]), func(b *testing.B) {
			src, dst := NewMatrix(s[0], s[1]), NewMatrix(s[1], s[0])
			for i := 0; i < b.N; i++ {
				TransposeInto(dst, src)
			}
		})
	}
}

func BenchmarkIm2Col(b *testing.B) {
	r := rng.New(1)
	const c, h, w, k = 16, 32, 32, 3
	img := make([]float64, c*h*w)
	for i := range img {
		img[i] = r.Float64()
	}
	outH := ConvOutSize(h, k, 1, 1)
	col := NewMatrix(c*k*k, outH*outH)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(img, c, h, w, k, k, 1, 1, col)
	}
}
