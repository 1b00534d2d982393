package compress

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"sapspsgd/internal/rng"
)

// topK is TopKInto into a fresh SparseVec.
func topK(x []float64, k int) SparseVec {
	var out SparseVec
	TopKInto(&out, nil, x, k)
	return out
}

// randomK is RandomKInto into a fresh SparseVec and bitset.
func randomK(x []float64, k int, r *rng.Source) SparseVec {
	var out SparseVec
	RandomKInto(&out, new([]uint64), x, k, r)
	return out
}

func TestMaskAgreementAndDensity(t *testing.T) {
	const n = 100000
	a := MaskIndices(nil, 7, 3, n, 100)
	b := MaskIndices(nil, 7, 3, n, 100)
	if !slices.Equal(a, b) {
		t.Fatalf("masks disagree: %d vs %d positions", len(a), len(b))
	}
	if !slices.IsSorted(a) || len(slices.Compact(slices.Clone(a))) != len(a) {
		t.Fatal("mask positions are not strictly ascending")
	}
	k := len(a)
	if ones := CountOnes(MaskInto(nil, 7, 3, n, 100)); ones != k {
		t.Fatalf("MaskInto has %d ones, MaskIndices %d positions", ones, k)
	}
	want := float64(n) / 100
	if math.Abs(float64(k)-want) > 6*math.Sqrt(want) {
		t.Fatalf("mask ones = %d, want ~%v", k, want)
	}
}

func TestMaskBadRatioPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for c < 1")
		}
	}()
	MaskIndices(nil, 1, 1, 10, 0.5)
}

func TestExtractScatterRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(200)
		x := make([]float64, n)
		on := make([]bool, n)
		var mask []int32
		for i := range x {
			x[i] = r.NormFloat64()
			if on[i] = r.Bernoulli(0.3); on[i] {
				mask = append(mask, int32(i))
			}
		}
		vals := ExtractInto(nil, x, mask)
		if len(vals) != CountOnes(on) {
			return false
		}
		dst := make([]float64, n)
		for j, i := range mask {
			dst[i] = vals[j]
		}
		for i := range x {
			if on[i] && dst[i] != x[i] {
				return false
			}
			if !on[i] && dst[i] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWireSizes(t *testing.T) {
	if DenseBytes(1000) != 4000 {
		t.Fatal("DenseBytes")
	}
	if MaskedBytes(10) != 40 {
		t.Fatal("MaskedBytes")
	}
	if SparseBytes(10) != 80 {
		t.Fatal("SparseBytes")
	}
}

func TestTopKExact(t *testing.T) {
	x := []float64{0.1, -5, 3, 0, -0.2, 4}
	s := topK(x, 3)
	if len(s.Idx) != 3 {
		t.Fatalf("len = %d", len(s.Idx))
	}
	got := map[int32]float64{}
	for i, idx := range s.Idx {
		got[idx] = s.Val[i]
	}
	want := map[int32]float64{1: -5, 2: 3, 5: 4}
	for idx, v := range want {
		if got[idx] != v {
			t.Fatalf("TopK = %v/%v, want %v", s.Idx, s.Val, want)
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	if s := topK([]float64{1, 2}, 0); len(s.Idx) != 0 || s.N != 2 {
		t.Fatal("k=0")
	}
	if s := topK([]float64{1, 2}, 5); len(s.Idx) != 2 {
		t.Fatal("k>n should clamp")
	}
	if s := topK(nil, 3); s.N != 0 || len(s.Idx) != 0 {
		t.Fatal("empty input")
	}
}

func TestTopKTies(t *testing.T) {
	x := []float64{1, -1, 1, -1, 1}
	s := topK(x, 3)
	if len(s.Idx) != 3 {
		t.Fatalf("ties: got %d entries, want exactly 3", len(s.Idx))
	}
}

func TestTopKMatchesSort(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(500)
		k := r.Intn(n + 1)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		s := topK(x, k)
		if len(s.Idx) != k {
			return false
		}
		// Indices ascending and values match x.
		for i, idx := range s.Idx {
			if i > 0 && s.Idx[i-1] >= idx {
				return false
			}
			if s.Val[i] != x[idx] {
				return false
			}
		}
		// The selected magnitudes must be the k largest.
		mags := make([]float64, n)
		for i, v := range x {
			mags[i] = math.Abs(v)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(mags)))
		minSelected := math.Inf(1)
		for _, v := range s.Val {
			if a := math.Abs(v); a < minSelected {
				minSelected = a
			}
		}
		if k > 0 && minSelected < mags[k-1]-1e-15 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorFeedbackConservation(t *testing.T) {
	// Error feedback invariant: transmitted + residual == input + previous
	// residual, coordinate by coordinate.
	const n, k = 100, 10
	ef := NewErrorFeedback(n)
	r := rng.New(3)
	prevResidual := make([]float64, n)
	for round := 0; round < 20; round++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		s := ef.CompressTopK(x, k)
		dense := make([]float64, n)
		for j, i := range s.Idx {
			dense[i] = s.Val[j]
		}
		for i := 0; i < n; i++ {
			sum := dense[i] + ef.Residual()[i]
			want := x[i] + prevResidual[i]
			if math.Abs(sum-want) > 1e-12 {
				t.Fatalf("round %d coord %d: sent+residual=%v, want %v", round, i, sum, want)
			}
		}
		copy(prevResidual, ef.Residual())
	}
}

func TestErrorFeedbackEventuallySendsEverything(t *testing.T) {
	// A constant input must eventually be transmitted in full: residuals grow
	// until every coordinate wins a top-k slot.
	const n, k = 20, 2
	ef := NewErrorFeedback(n)
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 + float64(float64(i)*0.01)
	}
	sent := make([]float64, n)
	for round := 0; round < 50; round++ {
		s := ef.CompressTopK(x, k)
		for j, i := range s.Idx {
			sent[i] += s.Val[j]
		}
	}
	for i := range sent {
		if sent[i] == 0 {
			t.Fatalf("coordinate %d was never transmitted in 50 rounds", i)
		}
	}
}

func TestRandomKProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(300)
		k := r.Intn(n + 1)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		s := randomK(x, k, r)
		if len(s.Idx) != k {
			return false
		}
		seen := map[int32]bool{}
		for i, idx := range s.Idx {
			if idx < 0 || int(idx) >= n || seen[idx] {
				return false
			}
			if i > 0 && s.Idx[i-1] >= idx {
				return false
			}
			seen[idx] = true
			if s.Val[i] != x[idx] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomKCoverage(t *testing.T) {
	// Over many draws every coordinate should be selected sometimes.
	const n, k = 30, 3
	r := rng.New(5)
	x := make([]float64, n)
	counts := make([]int, n)
	for trial := 0; trial < 2000; trial++ {
		s := randomK(x, k, r)
		for _, idx := range s.Idx {
			counts[idx]++
		}
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("coordinate %d never sampled", i)
		}
	}
}

func BenchmarkTopK1M(b *testing.B) {
	r := rng.New(1)
	x := make([]float64, 1<<20)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topK(x, len(x)/1000)
	}
}
