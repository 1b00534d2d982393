// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the SAPS-PSGD reproduction.
//
// Determinism across processes is load-bearing for the paper's protocol: the
// coordinator broadcasts only a 64-bit seed each round (Algorithm 1, line 5)
// and every worker must regenerate the exact same Bernoulli mask vector from
// it (Algorithm 2, line 6). Relying on math/rand would tie the protocol to a
// particular Go release's generator, so the generator is implemented here:
// SplitMix64 for seeding/stream derivation and xoshiro256** for the stream.
package rng

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Source is a deterministic PRNG. It is NOT safe for concurrent use; derive
// one Source per goroutine with Derive.
type Source struct {
	s [4]uint64
	// spare holds a cached second Gaussian sample from Box-Muller.
	spare    float64
	hasSpare bool
}

// splitMix64 advances x and returns the next SplitMix64 output. It is used to
// expand a single seed into the 256-bit xoshiro state.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// seedState expands x into a full xoshiro state via SplitMix64. xoshiro must
// not start from the all-zero state; SplitMix64 of any seed cannot produce
// four zero words, but guard anyway. This is the single seed-expansion used
// by New, Derive, and Reseed — their streams must stay in lockstep (mask
// determinism across processes is protocol-load-bearing).
func seedState(s *[4]uint64, x uint64) {
	for i := range s {
		s[i] = splitMix64(&x)
	}
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 1
	}
}

// deriveKey mixes a parent state with a stream identifier.
func deriveKey(s *[4]uint64, id uint64) uint64 {
	return s[0] ^ (s[1] << 1) ^ id*0x9e3779b97f4a7c15
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	s := &Source{}
	seedState(&s.s, seed)
	return s
}

// Derive returns an independent Source whose stream is a deterministic
// function of the parent seed stream and the given stream identifier. Two
// Sources derived with different ids produce statistically independent
// sequences; the parent is not advanced.
func (r *Source) Derive(id uint64) *Source {
	s := &Source{}
	seedState(&s.s, deriveKey(&r.s, id))
	return s
}

// Reseed reinitializes r in place to the exact stream of New(seed).Derive(id)
// — the allocation-free variant for hot paths that regenerate a derived
// stream every round (mask regeneration in Algorithm 2 line 6).
func (r *Source) Reseed(seed, id uint64) {
	var ps [4]uint64
	seedState(&ps, seed)
	seedState(&r.s, deriveKey(&ps, id))
	r.spare = 0
	r.hasSpare = false
}

// State is a Source's complete serializable position in its stream: the
// xoshiro256** words plus the cached Box-Muller spare. Capturing and later
// restoring a State resumes the stream exactly where it left off, which is
// what round-boundary checkpoints rely on (DESIGN.md §3: RNG cursors are part
// of a rank's snapshot).
type State struct {
	S        [4]uint64
	Spare    float64
	HasSpare bool
}

// State returns the Source's current stream position.
func (r *Source) State() State {
	return State{S: r.s, Spare: r.spare, HasSpare: r.hasSpare}
}

// SetState restores a position captured by State, making r's subsequent
// outputs identical to the captured Source's.
func (r *Source) SetState(st State) {
	r.s = st.S
	r.spare = st.Spare
	r.hasSpare = st.HasSpare
}

// StateSize is the number of bytes AppendTo writes: six little-endian words,
// the four xoshiro256** words, the spare's IEEE-754 bits, and HasSpare as 0
// or 1.
const StateSize = 6 * 8

// AppendTo appends the state's fixed word layout to dst.
func (st State) AppendTo(dst []byte) []byte {
	for _, w := range st.S {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(st.Spare))
	var has uint64
	if st.HasSpare {
		has = 1
	}
	return binary.LittleEndian.AppendUint64(dst, has)
}

// ReadState takes a state AppendTo wrote off the front of b. A short b, a
// HasSpare word other than 0 or 1, and the all-zero xoshiro state (which
// seeding never produces and which would emit zeros forever) are errors.
func ReadState(b []byte) (st State, rest []byte, err error) {
	if len(b) < StateSize {
		return State{}, nil, fmt.Errorf("rng: %d bytes where a %d-byte state was expected", len(b), StateSize)
	}
	for i := range st.S {
		st.S[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	st.Spare = math.Float64frombits(binary.LittleEndian.Uint64(b[32:]))
	switch has := binary.LittleEndian.Uint64(b[40:]); has {
	case 0, 1:
		st.HasSpare = has == 1
	default:
		return State{}, nil, fmt.Errorf("rng: state spare flag %d, want 0 or 1", has)
	}
	if st.S == [4]uint64{} {
		return State{}, nil, fmt.Errorf("rng: all-zero generator state")
	}
	return st, b[StateSize:], nil
}

// Uint64 returns the next 64 uniformly random bits (xoshiro256**).
func (r *Source) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// FillFloat64 writes the next len(dst) Float64 draws into dst and leaves the
// stream where as many Float64 calls would. It holds the xoshiro256** state
// in locals meanwhile, as maskBlock does; a block of 256 takes about 0.6×
// the time of 256 Float64 calls (BenchmarkFillFloat64). The step is written
// out here and in maskBlock rather than shared: an inlined step function
// puts a spill and a NOP into maskBlock's loop.
func (r *Source) FillFloat64(dst []float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		u := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		dst[i] = unit(u)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// unit is Float64's uniform of a draw u: its top 53 bits m as m·2⁻⁵³,
// exact. Float64 spells it out itself: through unit, each of its inlined
// copies would gain a NOP.
func unit(u uint64) float64 { return float64(u>>11) * (1.0 / (1 << 53)) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling with rejection to avoid
	// modulo bias.
	un := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// NormFloat64 returns a standard normal sample (Box-Muller, polar form).
func (r *Source) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// Gamma returns a Gamma(alpha, 1) sample via Marsaglia-Tsang squeeze
// rejection, with the standard U^(1/alpha) boost for shape < 1. It panics if
// alpha is not positive. Dirichlet draws (non-IID data partitions) normalize
// a vector of these.
func (r *Source) Gamma(alpha float64) float64 {
	if !(alpha > 0) {
		panic("rng: Gamma with non-positive alpha")
	}
	if alpha < 1 {
		// Gamma(a) = Gamma(a+1) · U^(1/a); 1-Float64 keeps U in (0, 1].
		u := 1 - r.Float64()
		return r.Gamma(alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// maskThreshold is the integer form of the test Float64() < p: a draw's top
// 53 bits m give Float64() = m·2⁻⁵³ exactly, and p·2⁵³ is exact too (a
// power-of-two scaling), so m·2⁻⁵³ < p holds exactly when m < ⌈p·2⁵³⌉.
func maskThreshold(p float64) uint64 {
	if !(p > 0) { // p ≤ 0 or NaN: no draw is below it
		return 0
	}
	return uint64(math.Ceil(min(p, 1) * (1 << 53))) // p ≥ 1: 2⁵³, above every draw
}

// MaskSeedIndices writes into dst[:0] the ascending positions of the ones
// of the round's Bernoulli(p) mask over n < 2³¹ entries (Eq. (3) of the
// paper): entry i is kept when the i-th draw of New(seed).Derive(round+1)
// has Float64() < p. All workers agree on the mask without communicating it.
// Blocks of 64 draws are compacted on the stack and appended, so the only
// scratch is the result; a dst with room for the mean plus six standard
// deviations is reused, so steady-state rounds allocate nothing.
func MaskSeedIndices(dst []int32, seed uint64, round, n int, p float64) []int32 {
	thr := maskThreshold(p)
	mean := float64(n) * float64(thr) / (1 << 53)
	if want := min(n, int(mean+6*math.Sqrt(mean))+64); cap(dst) < want {
		dst = make([]int32, 0, want)
	}
	dst = dst[:0]
	var src Source
	src.Reseed(seed, uint64(round)+1)
	var blk [64]int32
	for base := 0; base < n; base += 64 {
		kept := maskBlock(&src.s, &blk, base, min(base+64, n), thr)
		dst = append(dst, blk[:kept]...)
	}
	return dst
}

// maskBlock is the one mask draw loop: it draws positions lo..hi-1 (at most
// 64) from the xoshiro256** state s, held in locals meanwhile, compacts the
// kept ones into blk without a branch and returns how many it kept.
func maskBlock(s *[4]uint64, blk *[64]int32, lo, hi int, thr uint64) int {
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	kept := 0
	for i := lo; i < hi; i++ {
		u := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		blk[kept&63] = int32(i)
		kept += int((u>>11 - thr) >> 63) // 1 exactly when u>>11 < thr
	}
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
	return kept
}
