package compress

import (
	"fmt"
	"testing"

	"sapspsgd/internal/rng"
)

// The hot-path contract (see ISSUE/DESIGN): Top-k with error feedback and
// the shared-mask extract path must be allocation-free in steady state. The
// tests enforce it with AllocsPerRun; the benchmarks report it for
// inspection with -benchmem / ReportAllocs.

func randVec(n int, seed uint64) []float64 {
	r := rng.New(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}

func TestErrorFeedbackSteadyStateZeroAlloc(t *testing.T) {
	const n, k = 4096, 64
	ef := NewErrorFeedback(n)
	x := randVec(n, 1)
	for i := 0; i < 3; i++ { // warm up: grow the internal buffers once
		ef.CompressTopK(x, k)
	}
	if allocs := testing.AllocsPerRun(50, func() { ef.CompressTopK(x, k) }); allocs != 0 {
		t.Fatalf("ErrorFeedback.CompressTopK: %v allocs/op in steady state, want 0", allocs)
	}
}

func TestTopKIntoSteadyStateZeroAlloc(t *testing.T) {
	const n, k = 4096, 64
	x := randVec(n, 2)
	var out SparseVec
	var mags []float64
	mags = TopKInto(&out, mags, x, k)
	if allocs := testing.AllocsPerRun(50, func() { mags = TopKInto(&out, mags, x, k) }); allocs != 0 {
		t.Fatalf("TopKInto: %v allocs/op in steady state, want 0", allocs)
	}
}

// TestQSGDSteadyStateZeroAlloc: a quantization into reused words allocates
// nothing — the block of uniforms stays on the stack.
func TestQSGDSteadyStateZeroAlloc(t *testing.T) {
	const n = 4096
	x := randVec(n, 8)
	q := NewQSGD(16, 1)
	words := q.AppendQuantized(nil, x)
	if allocs := testing.AllocsPerRun(50, func() { words = q.AppendQuantized(words, x) }); allocs != 0 {
		t.Fatalf("QSGD.AppendQuantized: %v allocs/op in steady state, want 0", allocs)
	}
}

func TestMaskedExtractSteadyStateZeroAlloc(t *testing.T) {
	const n = 4096
	x := randVec(n, 3)
	var mask []int32
	var payload []float64
	mask = MaskIndices(mask, 7, 0, n, 100)
	payload = ExtractInto(payload, x, mask)
	round := 1
	if allocs := testing.AllocsPerRun(50, func() {
		mask = MaskIndices(mask, 7, round, n, 100)
		payload = ExtractInto(payload, x, mask)
		round++
	}); allocs != 0 {
		t.Fatalf("MaskIndices+ExtractInto: %v allocs/op in steady state, want 0", allocs)
	}
}

// TestMaskScratchIsOrderK: a round's mask and payload take room for the k ≈
// n/c kept entries, not for n — at n = 2²⁰ and c = 100 at most 3·n/c, on the
// first round and on every round that reuses them.
func TestMaskScratchIsOrderK(t *testing.T) {
	const n, c = 1 << 20, 100
	x := make([]float64, n)
	var mask []int32
	var payload []float64
	for round := range 20 {
		mask = MaskIndices(mask, 11, round, n, c)
		payload = ExtractInto(payload, x, mask)
		if cap(mask) > 3*n/c || cap(payload) > 3*n/c {
			t.Fatalf("round %d: mask cap %d, payload cap %d, want ≤ 3·n/c = %d", round, cap(mask), cap(payload), 3*n/c)
		}
	}
}

// TestTopKIntoMatchesTopK: reused out storage and scratch select exactly what
// fresh ones do.
func TestTopKIntoMatchesTopK(t *testing.T) {
	x := randVec(1000, 4)
	var out SparseVec
	var mags []float64
	for _, k := range []int{0, 1, 17, 500, 1000, 2000} {
		want := topK(x, k)
		mags = TopKInto(&out, mags, x, k)
		if out.N != want.N || len(out.Idx) != len(want.Idx) {
			t.Fatalf("k=%d: shape (%d,%d) != (%d,%d)", k, out.N, len(out.Idx), want.N, len(want.Idx))
		}
		for i := range want.Idx {
			if out.Idx[i] != want.Idx[i] || out.Val[i] != want.Val[i] {
				t.Fatalf("k=%d entry %d: (%d,%v) != (%d,%v)", k, i, out.Idx[i], out.Val[i], want.Idx[i], want.Val[i])
			}
		}
	}
}

// BenchmarkErrorFeedbackCompressTopK is the acceptance benchmark for the
// pooled hot path: allocs/op must read 0 in steady state.
func BenchmarkErrorFeedbackCompressTopK(b *testing.B) {
	const n, k = 1 << 16, 650 // paper scale: c = 100 over a 65k-param model
	ef := NewErrorFeedback(n)
	x := randVec(n, 5)
	ef.CompressTopK(x, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ef.CompressTopK(x, k)
	}
}

// BenchmarkTopKInto runs the paper-scale shape and the two baselines32 runs:
// its 85,002-parameter MLP at topk-psgd's c = 100 and dcd-psgd's c = 4.
func BenchmarkTopKInto(b *testing.B) {
	for _, sh := range []struct{ n, k int }{{1 << 16, 650}, {85002, 850}, {85002, 21250}} {
		b.Run(fmt.Sprintf("n=%d/k=%d", sh.n, sh.k), func(b *testing.B) {
			x := randVec(sh.n, 6)
			var out SparseVec
			var mags []float64
			mags = TopKInto(&out, mags, x, sh.k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mags = TopKInto(&out, mags, x, sh.k)
			}
		})
	}
}

// BenchmarkAppendQuantized quantizes baselines32's 85,002-parameter MLP at
// qsgd-psgd's 16 levels into reused words.
func BenchmarkAppendQuantized(b *testing.B) {
	x := randVec(85002, 10)
	q := NewQSGD(16, 1)
	words := q.AppendQuantized(nil, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		words = q.AppendQuantized(words, x)
	}
}

// BenchmarkMaskIndices draws one round mask at the tcp8 model's size under
// saps' c = 4 and the paper's c = 100.
func BenchmarkMaskIndices(b *testing.B) {
	for _, c := range []float64{4, 100} {
		b.Run(fmt.Sprintf("n=85002/c=%v", c), func(b *testing.B) {
			mask := MaskIndices(nil, 7, 0, 85002, c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mask = MaskIndices(mask, 7, i, 85002, c)
			}
		})
	}
}
