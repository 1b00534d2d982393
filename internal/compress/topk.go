package compress

import (
	"fmt"
	"math"
	"math/bits"

	"sapspsgd/internal/rng"
)

// TopKInto selects the k entries of x with largest absolute value into out,
// in ascending index order: every entry whose magnitude is strictly above the
// k-th largest, then the lowest-indexed entries tied with it. Magnitudes are
// ranked by the bit pattern of |v|, which orders exactly like the float
// magnitude for every value but NaN and ranks a NaN above +Inf, so a vector
// holding NaNs still yields exactly min(k, len(x)) entries, its NaNs first.
//
// mags is radix-select scratch space (grown as needed, so a reused scratch
// slice allocates only once). out's Idx/Val storage is reused across calls;
// after the first call at a given (n, k) the steady state performs zero heap
// allocations.
func TopKInto(out *SparseVec, mags []float64, x []float64, k int) []float64 {
	n := len(x)
	if k < 0 {
		panic(fmt.Sprintf("compress: negative k %d", k))
	}
	if k > n {
		k = n
	}
	out.N = n
	out.Idx = out.Idx[:0]
	out.Val = out.Val[:0]
	if k == 0 {
		return mags
	}
	if k == n {
		for i := range x {
			out.Idx = append(out.Idx, int32(i))
			out.Val = append(out.Val, x[i])
		}
		return mags
	}
	if cap(mags) < n {
		mags = make([]float64, n)
	}
	mags = mags[:n]
	thresh, ties := radixSelect(mags, x, k)
	selectAbove(out, x, thresh, ties)
	return mags
}

// selectAbove appends, in ascending index order, every entry of x whose
// magnitude bits are above thresh and the first ties entries equal to it. It
// compares 64 entries into a mask without a branch and visits the mask's set
// bits, so a sparse selection skips most words whole and a dense one never
// guesses entry by entry.
func selectAbove(out *SparseVec, x []float64, thresh uint64, ties int) {
	idx, val := out.Idx, out.Val
	below := thresh - 1 // b ≥ thresh ⇔ bit 63 of below-b is set, as b < 1<<63
	for base := 0; base < len(x); base += 64 {
		word := x[base:min(base+64, len(x))]
		var m uint64
		for j := len(word) - 1; j >= 0; j-- {
			m = m<<1 | (below-math.Float64bits(word[j])&^signBit)>>63
		}
		for ; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			if math.Float64bits(x[i])&^signBit == thresh {
				if ties == 0 {
					continue
				}
				ties--
			}
			idx = append(idx, int32(i))
			val = append(val, x[i])
		}
	}
	out.Idx, out.Val = idx, val
}

const (
	signBit    = 1 << 63
	digitBits  = 11
	digitMask  = 1<<digitBits - 1
	firstShift = 63 - digitBits // the 11 exponent bits of |v|
)

// radixSelect returns the bit pattern of the k-th largest |x[i]| (1 ≤ k <
// len(x)) and how many entries equal to it the top k hold. It histograms the
// 11 exponent bits of x, writes the magnitudes of the bucket holding the k-th
// largest to the front of mags (len(x) long) without a branch, and repeats on
// the next 11-bit digit of those survivors until one value is left. Shifts
// are masked with 63, which they never reach, to spare each one a range check.
func radixSelect(mags, x []float64, k int) (thresh uint64, ties int) {
	var hist [1 << digitBits]int
	for _, v := range x {
		hist[math.Float64bits(v)>>firstShift&digitMask]++
	}
	cand, src := mags, x
	for shift := uint(firstShift); ; {
		b := len(hist) - 1
		for ; k > hist[b]; b-- {
			k -= hist[b]
		}
		w := 0
		for _, v := range src {
			a := math.Float64bits(v) &^ signBit
			cand[w] = math.Float64frombits(a)
			d := a>>(shift&63)&digitMask ^ uint64(b)
			w += int((d - 1) >> 63) // 1 when a's digit is b, 0 otherwise
		}
		cand, src = cand[:w], cand[:w]
		if w == 1 || shift == 0 {
			// Every survivor shares all the bits seen so far: they are one
			// value, and k counts the ties the top k hold.
			return math.Float64bits(cand[0]), k
		}
		shift = max(shift, digitBits) - digitBits
		hist = [1 << digitBits]int{}
		for _, a := range cand {
			hist[math.Float64bits(a)>>(shift&63)&digitMask]++
		}
	}
}

// ErrorFeedback wraps a sparsifying compressor with the residual-accumulation
// scheme ("error compensation") that Top-k sparsification needs for
// convergence: coordinates dropped this round are added back to the input of
// the next round. Its buffers — the residual, the radix-select scratch and
// the returned sparse vector — are owned by the accumulator and reused, so a
// steady-state CompressTopK performs zero heap allocations.
type ErrorFeedback struct {
	residual []float64
	mags     []float64
	out      SparseVec
}

// NewErrorFeedback returns an error-feedback accumulator for n-dimensional
// inputs.
func NewErrorFeedback(n int) *ErrorFeedback {
	return &ErrorFeedback{residual: make([]float64, n)}
}

// CompressTopK adds x into the residual, selects the top k entries of the sum
// for transmission, and zeroes them in the residual, leaving behind what was
// not sent. The input slice is not modified. The returned SparseVec's values
// are copies, so zeroing the residual does not touch them; its buffers are
// owned by e and only valid until the next CompressTopK call.
func (e *ErrorFeedback) CompressTopK(x []float64, k int) SparseVec {
	if len(x) != len(e.residual) {
		panic("compress: ErrorFeedback dimension mismatch")
	}
	for i, v := range x {
		e.residual[i] = v + e.residual[i]
	}
	e.mags = TopKInto(&e.out, e.mags, e.residual, k)
	for _, idx := range e.out.Idx {
		e.residual[idx] = 0
	}
	return e.out
}

// Residual exposes the current residual (for tests and diagnostics).
func (e *ErrorFeedback) Residual() []float64 { return e.residual }

// SetResidual overwrites the residual with a checkpointed copy — restoring
// it resumes the compensation stream exactly (error-feedback residuals are
// part of a rank's round-boundary snapshot). It panics on a length mismatch.
func (e *ErrorFeedback) SetResidual(r []float64) {
	if len(r) != len(e.residual) {
		panic(fmt.Sprintf("compress: SetResidual of %d values on %d-dimensional accumulator", len(r), len(e.residual)))
	}
	copy(e.residual, r)
}

// RandomKInto selects k coordinates of x uniformly at random (without
// replacement) using the given RNG and writes them with their values into
// out, in ascending index order. Unlike the shared-mask scheme, the support
// is explicit, so the wire cost includes indices. *chosen is the
// sampling-set bitset (grown and cleared on entry, so a persistent one makes
// the steady state allocation-free).
func RandomKInto(out *SparseVec, chosen *[]uint64, x []float64, k int, r *rng.Source) {
	n := len(x)
	if k > n {
		k = n
	}
	out.N = n
	out.Idx = out.Idx[:0]
	out.Val = out.Val[:0]
	if k == 0 {
		return
	}
	words := (n + 63) / 64
	if cap(*chosen) < words {
		*chosen = make([]uint64, words)
	}
	set := (*chosen)[:words]
	clear(set)
	// Floyd's sampling: k uniform draws without replacement in O(k).
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if set[t>>6]&(1<<(t&63)) != 0 {
			t = j
		}
		set[t>>6] |= 1 << (t & 63)
	}
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			out.Idx = append(out.Idx, int32(i))
			out.Val = append(out.Val, x[i])
		}
	}
}
