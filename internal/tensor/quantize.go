package tensor

import (
	"math"
	"math/bits"
)

// QuantizeInto writes the stochastic rounding of every x[i] to a signed
// level, given uniforms u[i] in [0, 1): with a = |x[i]| / norm · s, rounded
// in that order, the code is ⌊a⌋ + 1 when u[i] < a − ⌊a⌋ and ⌊a⌋
// otherwise, negated when x[i] < 0 (so −0 gives +0). It panics if lengths
// differ.
//
// No element takes a branch: ⌊a⌋ is a truncation (a ≥ 0), the draw test
// compares the bits of u and a − ⌊a⌋ as signed integers, which for u ≥ 0
// is the float test (where a is NaN, ⌊a⌋ + 1 and ⌊a⌋ + 0 are the same NaN),
// and the sign is selected by a mask. The scalar loop below stays as the
// definition of every bit, the fallback on other platforms and the whole
// path under the purego build tag; quantize_amd64.s runs the same roundings
// four words a pass (VDIVPD, VMULPD, VROUNDPD toward zero and VSUBPD, never
// a fused multiply-add).
func QuantizeInto(out, x, u []float64, norm, s float64) {
	assertSameLen(len(out), len(x))
	assertSameLen(len(u), len(x))
	quantize(out, x, u, norm, s)
}

// quantizeGeneric is QuantizeInto's scalar loop.
func quantizeGeneric(out, x, u []float64, norm, s float64) {
	out, u = out[:len(x)], u[:len(x)]
	for i, v := range x {
		a := float64(math.Abs(v) / norm * s)
		lo := math.Trunc(a)
		_, up := bits.Sub64(math.Float64bits(u[i])^signBit, math.Float64bits(a-lo)^signBit, 0) // 1 exactly when u < a − ⌊a⌋ as int64s
		c := lo + math.Float64frombits(-up&oneBits)                                            // ⌊a⌋ + 1.0 or ⌊a⌋ + 0.0
		var neg uint64
		if v < 0 {
			neg = signBit
		}
		out[i] = math.Float64frombits(math.Float64bits(c) ^ neg)
	}
}

const (
	signBit = 1 << 63
	oneBits = 0x3ff0000000000000 // math.Float64bits(1)
)
