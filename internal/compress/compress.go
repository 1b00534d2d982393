// Package compress implements the model/gradient compression operators used
// by SAPS-PSGD and by the baselines it is compared against:
//
//   - shared-seed random masking (Eq. (2)–(3) of the paper) — the SAPS
//     sparsifier, whose mask is regenerated from a broadcast seed so only the
//     surviving values cross the wire;
//   - Top-k sparsification with error feedback (TopK-PSGD, DGC-style);
//   - random-k sparsification (S-FedAvg's random structured updates, and the
//     difference compressor for DCD-PSGD).
//
// Every operator reports its exact wire size so the traffic ledgers in the
// experiment harness are byte-accurate.
package compress

import (
	"fmt"

	"sapspsgd/internal/rng"
)

// Wire format constants. The paper's models are float32 and indices fit in
// 32 bits, so a transmitted value costs 4 bytes and an explicit index costs
// another 4. Computation stays float64; only accounting uses these.
const (
	BytesPerValue = 4
	BytesPerIndex = 4
)

// DenseBytes returns the wire size of a dense n-parameter model.
func DenseBytes(n int) int64 { return int64(n) * BytesPerValue }

// MaskedBytes returns the wire size of k surviving values under a shared
// mask: no indices are transmitted because both sides regenerate the mask
// from the shared seed.
func MaskedBytes(k int) int64 { return int64(k) * BytesPerValue }

// SparseBytes returns the wire size of k (index, value) pairs for
// compressors whose support must be transmitted explicitly (Top-k, random-k
// without a shared seed).
func SparseBytes(k int) int64 { return int64(k) * (BytesPerValue + BytesPerIndex) }

// MaskIndices writes the ascending positions of the ones of the round-t
// Bernoulli(1/c) mask over n entries into dst[:0], exactly as every worker
// regenerates it from the shared seed in Algorithm 2 line 6. It allocates
// only when dst is short of room for the round (rng.MaskSeedIndices).
func MaskIndices(dst []int32, seed uint64, round, n int, c float64) []int32 {
	if c < 1 {
		panic(fmt.Sprintf("compress: compression ratio %v < 1", c))
	}
	return rng.MaskSeedIndices(dst, seed, round, n, 1/c)
}

// MaskInto is the mask of MaskIndices as an n-entry 0/1 view in dst,
// allocating only when dst has room for fewer than n entries.
func MaskInto(dst []bool, seed uint64, round, n int, c float64) []bool {
	dst = append(dst[:0], make([]bool, n)...)
	for _, i := range MaskIndices(nil, seed, round, n, c) {
		dst[i] = true
	}
	return dst
}

// CountOnes returns the number of true entries of mask.
func CountOnes(mask []bool) int {
	k := 0
	for _, b := range mask {
		if b {
			k++
		}
	}
	return k
}

// ExtractInto gathers x's values at the mask's positions into dst — the
// payload a SAPS worker sends: values only. It allocates only when dst has
// less room than the mask's capacity. The returned slice aliases dst's
// storage, so callers that reuse a scratch buffer must not overwrite it while
// a previous payload is still being read.
func ExtractInto(dst, x []float64, mask []int32) []float64 {
	if cap(dst) < len(mask) {
		dst = make([]float64, 0, cap(mask))
	}
	dst = dst[:len(mask)]
	for j, i := range mask {
		dst[j] = x[i]
	}
	return dst
}

// SparseVec is an explicit-support sparse vector in a dense space of
// dimension N.
type SparseVec struct {
	N   int
	Idx []int32
	Val []float64
}
