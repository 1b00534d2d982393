package compress

import (
	"math"
	"testing"
	"testing/quick"

	"sapspsgd/internal/rng"
)

// decodeQSGD reads AppendQuantized's layout [norm, code...] back as the
// estimate norm·code/levels of each coordinate.
func decodeQSGD(words []float64, levels int) []float64 {
	out := make([]float64, len(words)-1)
	for i, c := range words[1:] {
		out[i] = words[0] * c / float64(levels)
	}
	return out
}

func TestQSGDRoundTripShape(t *testing.T) {
	q := NewQSGD(4, 1)
	x := []float64{1, -2, 0, 0.5}
	dec := decodeQSGD(q.AppendQuantized(nil, x), q.Levels)
	if len(dec) != len(x) {
		t.Fatal("length")
	}
	// Signs must be preserved for clearly nonzero entries.
	if dec[0] < 0 || dec[1] > 0 {
		t.Fatalf("signs broken: %v", dec)
	}
}

func TestQSGDZeroVector(t *testing.T) {
	q := NewQSGD(4, 1)
	enc := q.AppendQuantized(nil, make([]float64, 8))
	if len(enc) != 9 || enc[0] != 0 {
		t.Fatal("norm")
	}
	for _, v := range decodeQSGD(enc, q.Levels) {
		if v != 0 {
			t.Fatal("zero vector must decode to zero")
		}
	}
}

func TestQSGDUnbiased(t *testing.T) {
	// E[decode(AppendQuantized(x))] == x: average many independent encodings.
	q := NewQSGD(2, 7)
	r := rng.New(3)
	x := make([]float64, 16)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	const trials = 20000
	mean := make([]float64, len(x))
	var words []float64
	for tr := 0; tr < trials; tr++ {
		words = q.AppendQuantized(words, x)
		for i, v := range decodeQSGD(words, q.Levels) {
			mean[i] += v / trials
		}
	}
	for i := range x {
		if math.Abs(mean[i]-x[i]) > 0.05 {
			t.Fatalf("coord %d: mean %v vs true %v", i, mean[i], x[i])
		}
	}
}

func TestQSGDCodesWithinRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		levels := 1 + r.Intn(127)
		q := NewQSGD(levels, seed)
		x := make([]float64, 1+r.Intn(100))
		for i := range x {
			x[i] = r.NormFloat64() * 10
		}
		for _, c := range q.AppendQuantized(nil, x)[1:] {
			if c != math.Trunc(c) || c > float64(levels) || c < -float64(levels) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQSGDWireBytes(t *testing.T) {
	// levels=1 → 3 values → 2 bits/code. 16 codes → 4 bytes + 4 norm = 8.
	if got := QuantizedWireBytes(16, 1); got != 8 {
		t.Fatalf("QuantizedWireBytes = %d, want 8", got)
	}
	// levels=127 → 255 values → 8 bits/code. 10 codes → 10 bytes + 4.
	if got := QuantizedWireBytes(10, 127); got != 14 {
		t.Fatalf("QuantizedWireBytes = %d, want 14", got)
	}
}

func TestQSGDCompressionWeakerThanMask(t *testing.T) {
	// The paper's argument: quantization saturates at 32× while mask
	// sparsification reaches c=100 and beyond. Dense float32 payload of n
	// values = 4n bytes; ternary QSGD ≈ n/4 bytes (16×); mask c=100 = 0.04n.
	const n = 10000
	qBytes := QuantizedWireBytes(n, 1)
	maskBytes := MaskedBytes(n / 100)
	if qBytes <= maskBytes {
		t.Fatalf("QSGD %d bytes unexpectedly below mask-c100 %d bytes", qBytes, maskBytes)
	}
	if qBytes >= DenseBytes(n) {
		t.Fatalf("QSGD %d bytes not below dense %d", qBytes, DenseBytes(n))
	}
}

func TestQSGDBadLevelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQSGD(0, 1)
}
