//go:build amd64 && !purego

package tensor

// hasAVX2 is set once, at start-up, from CPUID and XGETBV: the CPU has
// AVX2 and the OS saves the YMM registers.
var hasAVX2 = cpuHasAVX2()

// cpuHasAVX2 is implemented in axpy_amd64.s.
func cpuHasAVX2() bool

// axpyAVX2 and axpyRowsAVX2 are implemented in axpy_amd64.s. Their callers
// have checked every length: x is as long as y, and src holds rows rows of
// len(dst) elements whose weights g holds. axpyRowsAVX2 checks each p
// against rows as it reaches it, like axpyRowsGeneric, and leaves dst as it
// was when idx is empty.
//
//go:noescape
func axpyAVX2(a float64, x, y []float64)

//go:noescape
func axpyRowsAVX2(dst, src, g []float64, stride, rows int, idx []int32) bool

// midpointAVX2 is implemented in midpoint_amd64.s. Its caller has checked
// that v is as long as x.
//
//go:noescape
func midpointAVX2(x, v []float64)

// maskedColumnsAVX2 is implemented in maskedcols_amd64.s. It runs
// MaskedColumns over the columns below n &^ 3, four at a time; with all
// set every unit passes and y, which must still be readable, is ignored.
// Its caller has checked every length.
//
//go:noescape
func maskedColumnsAVX2(sums []float64, lists, ends []int32, g, y []float64, rows, n int, all bool)

func axpy(a float64, x, y []float64) {
	if hasAVX2 {
		axpyAVX2(a, x, y)
		return
	}
	axpyGeneric(a, x, y)
}

func midpoint(x, v []float64) {
	if hasAVX2 {
		midpointAVX2(x, v)
		return
	}
	midpointGeneric(x, v)
}

func axpyRows(dst, src, g []float64, stride, rows int, idx []int32) bool {
	if hasAVX2 {
		if len(idx) == 0 {
			clear(dst)
			return true
		}
		return axpyRowsAVX2(dst, src, g, stride, rows, idx)
	}
	return axpyRowsGeneric(dst, src, g, stride, rows, idx)
}

// maskedColumns runs the kernel over the whole groups of four columns and
// the scalar loop over the rest.
func maskedColumns(sums []float64, lists, ends []int32, g, y []float64, rows, n int) {
	from := 0
	if hasAVX2 {
		if y == nil {
			maskedColumnsAVX2(sums, lists, ends, g, g, rows, n, true)
		} else {
			maskedColumnsAVX2(sums, lists, ends, g, y, rows, n, false)
		}
		from = n &^ 3
	}
	maskedColumnsGeneric(sums, lists, ends, g, y, rows, n, from)
}
