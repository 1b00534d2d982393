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
// against rows as it reaches it, like axpyRowsGeneric.
//
//go:noescape
func axpyAVX2(a float64, x, y []float64)

//go:noescape
func axpyRowsAVX2(dst, src, g []float64, stride, rows int, idx []int32) bool

func axpy(a float64, x, y []float64) {
	if hasAVX2 {
		axpyAVX2(a, x, y)
		return
	}
	axpyGeneric(a, x, y)
}

func axpyRows(dst, src, g []float64, stride, rows int, idx []int32) bool {
	if hasAVX2 {
		return axpyRowsAVX2(dst, src, g, stride, rows, idx)
	}
	return axpyRowsGeneric(dst, src, g, stride, rows, idx)
}
