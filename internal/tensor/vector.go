// Package tensor provides the dense float64 vector and matrix primitives the
// neural-network substrate and the gossip/compression algorithms are built on.
//
// Models are exchanged between workers as flat []float64 parameter vectors
// (Eq. (2) of the paper), so most of this package operates on plain slices;
// Matrix is a thin row-major wrapper used by the layers and by the gossip
// matrix analysis.
package tensor

import (
	"fmt"
	"math"
)

// The element-wise kernels below process four elements per iteration. The
// unrolling is bit-transparent — each element's arithmetic is independent, so
// the results are identical to the scalar loop (unlike reductions, where
// reassociation would change the floating-point sum; Dot and Sum therefore
// keep a single sequential accumulator per reduction).

// Fill sets every element of v to x. A +0 fill is clear(v), a memclr that
// writes the loop's bits; -0 takes the loop.
func Fill(v []float64, x float64) {
	if math.Float64bits(x) == 0 {
		clear(v)
		return
	}
	n := len(v) &^ 3
	for i := 0; i < n; i += 4 {
		v[i], v[i+1], v[i+2], v[i+3] = x, x, x, x
	}
	for i := n; i < len(v); i++ {
		v[i] = x
	}
}

// Add computes dst = a + b element-wise. dst may alias a or b.
func Add(dst, a, b []float64) {
	assertSameLen(len(a), len(b))
	assertSameLen(len(dst), len(a))
	b, dst = b[:len(a)], dst[:len(a)]
	n := len(a) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] = a[i] + b[i]
		dst[i+1] = a[i+1] + b[i+1]
		dst[i+2] = a[i+2] + b[i+2]
		dst[i+3] = a[i+3] + b[i+3]
	}
	for i := n; i < len(a); i++ {
		dst[i] = a[i] + b[i]
	}
}

// Sub computes dst = a - b element-wise. dst may alias a or b.
func Sub(dst, a, b []float64) {
	assertSameLen(len(a), len(b))
	assertSameLen(len(dst), len(a))
	b, dst = b[:len(a)], dst[:len(a)]
	n := len(a) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] = a[i] - b[i]
		dst[i+1] = a[i+1] - b[i+1]
		dst[i+2] = a[i+2] - b[i+2]
		dst[i+3] = a[i+3] - b[i+3]
	}
	for i := n; i < len(a); i++ {
		dst[i] = a[i] - b[i]
	}
}

// Dot returns the inner product of a and b. The accumulation is a single
// sequential chain — unrolling with partial sums would reassociate the
// floating-point additions and break bit-identical reproducibility. Vector
// lanes never split a chain either: nn.Dense.Forward runs each output unit's
// chain in a lane of MulTransposedInto's tile, bit-identical to this loop.
func Dot(a, b []float64) float64 {
	assertSameLen(len(a), len(b))
	s := 0.0
	for i, ai := range a {
		s += float64(ai * b[i])
	}
	return s
}

// Sum returns the sum of the elements of v.
func Sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty vector.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return Sum(v) / float64(len(v))
}

// ArgMax returns the index of the largest element of v (first on ties). It
// panics on an empty vector.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		panic("tensor: ArgMax of empty vector")
	}
	best, bi := v[0], 0
	for i := 1; i < len(v); i++ {
		if v[i] > best {
			best, bi = v[i], i
		}
	}
	return bi
}

func assertSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("tensor: length mismatch %d != %d", a, b))
	}
}
