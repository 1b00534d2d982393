package rng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at %d: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(7)
	a := parent.Derive(1)
	b := parent.Derive(2)
	a2 := New(7).Derive(1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != a2.Uint64() {
			t.Fatalf("Derive not deterministic at %d", i)
		}
	}
	// a and b should not be identical streams.
	a3 := New(7).Derive(1)
	diff := false
	for i := 0; i < 100; i++ {
		if a3.Uint64() != b.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("Derive(1) and Derive(2) produced identical streams")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(9)
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", b, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += float64(x * x)
	}
	mean := sum / n
	variance := sumSq/n - float64(mean*mean)
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has len %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestMaskDensity(t *testing.T) {
	tests := []struct {
		name string
		p    float64
	}{
		{"c=100", 0.01},
		{"c=10", 0.1},
		{"c=4", 0.25},
		{"dense", 0.9},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			const n = 500000
			ones := len(MaskSeedIndices(nil, 23, 0, n, tc.p))
			got := float64(ones) / n
			sigma := math.Sqrt(tc.p * (1 - tc.p) / n)
			if math.Abs(got-tc.p) > 6*sigma {
				t.Fatalf("mask density %v, want %v ± %v", got, tc.p, 6*sigma)
			}
		})
	}
}

func TestMaskSeedAgreement(t *testing.T) {
	// The protocol invariant: every worker computes the same mask for a given
	// (seed, round). Simulate 32 workers, half of them reusing scratch.
	const n = 10000
	ref := MaskSeedIndices(nil, 99, 5, n, 0.01)
	var scratch []int32
	for w := 0; w < 32; w++ {
		var m []int32
		if w%2 == 0 {
			m = MaskSeedIndices(nil, 99, 5, n, 0.01)
		} else {
			scratch = MaskSeedIndices(scratch, 99, w, n, 0.3)
			m = MaskSeedIndices(scratch, 99, 5, n, 0.01)
		}
		if !slices.Equal(m, ref) {
			t.Fatalf("worker %d mask differs: %d vs %d positions", w, len(m), len(ref))
		}
	}
}

func TestMaskSeedDiffersAcrossRounds(t *testing.T) {
	const n = 10000
	a := maskBits(MaskSeedIndices(nil, 99, 1, n, 0.5), n)
	b := maskBits(MaskSeedIndices(nil, 99, 2, n, 0.5), n)
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	if diff < n/4 {
		t.Fatalf("masks for different rounds too similar: %d/%d differ", diff, n)
	}
}

// maskBits expands mask positions to an n-entry 0/1 vector.
func maskBits(pos []int32, n int) []bool {
	out := make([]bool, n)
	for _, i := range pos {
		out[i] = true
	}
	return out
}

// maskDrawsReference is the per-draw mask loop MaskSeedIndices replaced,
// verbatim: one Float64 draw per entry, kept when it is below p.
func maskDrawsReference(seed uint64, round int, n int, p float64) []bool {
	dst := make([]bool, n)
	var src Source // stack-local: the steady state allocates nothing
	src.Reseed(seed, uint64(round)+1)
	for i := range dst {
		dst[i] = src.Float64() < p
	}
	return dst
}

// maskRatios are the compression ratios c (p = 1/c) the threshold and the
// draw loop are checked at: the dense and next-to-dense ends, the ratios
// the paper and the workloads run, a nearly empty mask and the empty one.
var maskRatios = []float64{1, 1 + 0x1p-52, 3, 4, 7, 50, 100, 1e9, math.Inf(1)}

// TestMaskThresholdIsExact: the integer threshold thr decides Float64() < p
// exactly — the largest kept draw, (thr−1)·2⁻⁵³, is below p and the smallest
// dropped one, thr·2⁻⁵³, is not.
func TestMaskThresholdIsExact(t *testing.T) {
	for _, c := range maskRatios {
		p := 1 / c
		thr := float64(maskThreshold(p)) // thr ≤ 2⁵³: exact
		if !((thr-1)*0x1p-53 < p) {
			t.Errorf("c=%v: draw thr−1 = %v is not below p = %v", c, thr-1, p)
		}
		if thr*0x1p-53 < p {
			t.Errorf("c=%v: draw thr = %v is below p = %v", c, thr, p)
		}
	}
}

// FuzzMaskIndicesMatchDraws: MaskSeedIndices keeps exactly the entries the
// per-draw reference keeps, for any seed, round, size and ratio.
func FuzzMaskIndicesMatchDraws(f *testing.F) {
	for _, n := range []int{0, 1, 63, 64, 65} {
		for i, c := range maskRatios {
			f.Add(uint64(n*31+i), i, n, c)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, round, n int, c float64) {
		if n < 0 || n > 4096 {
			t.Skip()
		}
		p := 1 / c
		var want []int32
		for i, on := range maskDrawsReference(seed, round, n, p) {
			if on {
				want = append(want, int32(i))
			}
		}
		if got := MaskSeedIndices(nil, seed, round, n, p); !slices.Equal(got, want) {
			t.Fatalf("seed %d round %d n %d c %v: positions differ from the per-draw mask", seed, round, n, c)
		}
	})
}

func TestBernoulliRate(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		const n, p = 20000, 0.3
		hits := 0
		for i := 0; i < n; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		rate := float64(hits) / n
		return math.Abs(rate-p) < 6*math.Sqrt(p*(1-p)/n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

// TestFillFloat64MatchesFloat64: a block draw writes what as many Float64
// calls return and leaves the stream where they do.
func TestFillFloat64MatchesFloat64(t *testing.T) {
	for _, n := range []int{0, 1, 7, 256, 1000} {
		got, want := New(uint64(n)+3), New(uint64(n)+3)
		dst := make([]float64, n)
		got.FillFloat64(dst)
		for i, v := range dst {
			if w := want.Float64(); math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("n=%d draw %d: %v, Float64 %v", n, i, v, w)
			}
		}
		if got.State() != want.State() {
			t.Fatalf("n=%d: stream at %+v, Float64 calls leave it at %+v", n, got.State(), want.State())
		}
	}
}

// BenchmarkFillFloat64 times a block of 256 uniforms, as QSGD draws them,
// against 256 Float64 calls.
func BenchmarkFillFloat64(b *testing.B) {
	var u [256]float64
	b.Run("block", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			r.FillFloat64(u[:])
		}
	})
	b.Run("calls", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			for j := range u {
				u[j] = r.Float64()
			}
		}
	})
}

func TestReseedMatchesNewDerive(t *testing.T) {
	// Reseed's contract: the exact stream of New(seed).Derive(id). Mask
	// regeneration routes through Reseed while the coordinator side uses
	// New/Derive, so divergence would silently break the shared-mask
	// protocol.
	for _, tc := range []struct{ seed, id uint64 }{
		{0, 0}, {1, 1}, {99, 6}, {^uint64(0), 0x9e3779b97f4a7c15}, {12345, 1 << 40},
	} {
		want := New(tc.seed).Derive(tc.id)
		var got Source
		got.Reseed(tc.seed, tc.id)
		for i := 0; i < 100; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed=%d id=%d draw %d: Reseed %d != New().Derive() %d", tc.seed, tc.id, i, g, w)
			}
		}
	}
}

func TestGammaMoments(t *testing.T) {
	// Gamma(alpha, 1) has mean alpha and variance alpha; check both within
	// a loose Monte-Carlo tolerance for shapes below and above 1.
	for _, alpha := range []float64{0.3, 1.0, 2.5, 7.0} {
		r := New(42)
		const n = 200000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			g := r.Gamma(alpha)
			if !(g > 0) {
				t.Fatalf("alpha=%v: non-positive sample %v", alpha, g)
			}
			sum += g
			sumSq += float64(g * g)
		}
		mean := sum / n
		variance := sumSq/n - float64(mean*mean)
		if math.Abs(mean-alpha) > float64(0.05*alpha)+0.01 {
			t.Errorf("alpha=%v: mean %v", alpha, mean)
		}
		if math.Abs(variance-alpha) > float64(0.15*alpha)+0.02 {
			t.Errorf("alpha=%v: variance %v", alpha, variance)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Gamma(0) did not panic")
		}
	}()
	New(1).Gamma(0)
}
