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

func TestMaskedExtractSteadyStateZeroAlloc(t *testing.T) {
	const n = 4096
	x := randVec(n, 3)
	var mask []bool
	var payload []float64
	mask = MaskInto(mask, 7, 0, n, 100)
	payload = ExtractInto(payload, x, mask)
	if allocs := testing.AllocsPerRun(50, func() {
		mask = MaskInto(mask, 7, 1, n, 100)
		payload = ExtractInto(payload, x, mask)
	}); allocs != 0 {
		t.Fatalf("MaskInto+ExtractInto: %v allocs/op in steady state, want 0", allocs)
	}
}

func TestTopKIntoMatchesTopK(t *testing.T) {
	x := randVec(1000, 4)
	for _, k := range []int{0, 1, 17, 500, 1000, 2000} {
		want := TopK(x, k)
		var out SparseVec
		TopKInto(&out, nil, x, k)
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

func BenchmarkMaskedExtract(b *testing.B) {
	const n = 1 << 16
	x := randVec(n, 7)
	var mask []bool
	var payload []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mask = MaskInto(mask, 7, i, n, 100)
		payload = ExtractInto(payload, x, mask)
	}
	_ = payload
}
