package compress

import (
	"fmt"
	"math"

	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// QSGD implements the stochastic uniform quantizer of Alistarh et al.
// (QSGD), one of the quantization baselines the paper's related-work section
// positions sparsification against. A vector is encoded as its l2 norm plus
// per-coordinate sign and an s-level stochastically rounded magnitude.
//
// Wire cost: 4 bytes for the norm + ceil(log2(2s+1)) bits per coordinate —
// at most a 32/bits compression of the dense payload, far weaker than the
// 100× the mask sparsifier reaches (the paper's argument for
// sparsification).
type QSGD struct {
	// Levels is s, the number of positive quantization levels (e.g. 1 for
	// ternary, 127 for 8-bit).
	Levels int
	rnd    *rng.Source
}

// NewQSGD builds a quantizer with the given level count and seed.
func NewQSGD(levels int, seed uint64) *QSGD {
	if levels < 1 {
		panic(fmt.Sprintf("compress: QSGD levels %d", levels))
	}
	return &QSGD{Levels: levels, rnd: rng.New(seed)}
}

// RNGState captures the quantizer's stochastic-rounding stream position —
// part of a rank's round-boundary checkpoint.
func (q *QSGD) RNGState() rng.State { return q.rnd.State() }

// SetRNGState restores a position captured by RNGState.
func (q *QSGD) SetRNGState(st rng.State) { q.rnd.SetState(st) }

// AppendQuantized encodes x with stochastic rounding into the codec wire
// layout [norm, code...] in dst, reusing dst's storage. Each code is a signed
// level index in [-Levels, +Levels], and norm·code/Levels is an unbiased
// estimate of its coordinate (verified by the tests). It draws the
// stochastic-rounding RNG once per coordinate when the norm is nonzero and
// not at all otherwise.
func (q *QSGD) AppendQuantized(dst []float64, x []float64) []float64 {
	dst = dst[:0]
	if cap(dst) < len(x)+1 {
		dst = make([]float64, 0, len(x)+1)
	}
	norm := l2(x)
	dst = append(dst, norm)
	dst = dst[:len(x)+1]
	out := dst[1:]
	if norm == 0 {
		for i := range out {
			out[i] = 0
		}
		return dst
	}
	s := float64(q.Levels)
	var u [qsgdBlock]float64
	for lo := 0; lo < len(x); lo += qsgdBlock {
		xs := x[lo:min(lo+qsgdBlock, len(x))]
		us := u[:len(xs)]
		q.rnd.FillFloat64(us)
		tensor.QuantizeInto(out[lo:lo+len(xs)], xs, us, norm, s)
	}
	return dst
}

// qsgdBlock is how many uniforms AppendQuantized draws at a time, into an
// array on its stack, before tensor.QuantizeInto rounds the block with them.
const qsgdBlock = 256

// l2 is the Euclidean norm with a single sequential accumulator (the sum
// order is part of the bit-reproducibility contract). Each square is
// rounded before it is added, so no platform fuses the two.
func l2(x []float64) float64 {
	norm := 0.0
	for _, v := range x {
		norm += float64(v * v)
	}
	return math.Sqrt(norm)
}

// QuantizedWireBytes is the exact encoded size of n coordinates quantized to
// 2*levels+1 signed levels: 4 bytes of norm plus bit-packed codes.
func QuantizedWireBytes(n, levels int) int64 {
	bitsPerCode := bitsFor(2*levels + 1)
	return 4 + int64((n*bitsPerCode+7)/8)
}

func bitsFor(values int) int {
	bits := 0
	for v := values - 1; v > 0; v >>= 1 {
		bits++
	}
	if bits == 0 {
		return 1
	}
	return bits
}
