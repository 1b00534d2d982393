package compress

import (
	"encoding/binary"
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

// quantizeReference is the scalar definition of AppendQuantized, one
// coordinate at a time: the sequential norm with each square rounded, then
// for a nonzero norm a = |v| / norm * s, ⌊a⌋, one Float64 draw compared with
// a − ⌊a⌋, and the sign by the v < 0 test.
func quantizeReference(r *rng.Source, x []float64, levels int) []float64 {
	norm := 0.0
	for _, v := range x {
		norm += float64(v * v)
	}
	norm = math.Sqrt(norm)
	out := []float64{norm}
	s := float64(levels)
	for _, v := range x {
		if norm == 0 {
			out = append(out, 0)
			continue
		}
		a := float64(math.Abs(v) / norm * s)
		c := math.Floor(a)
		if r.Float64() < a-c {
			c++
		}
		if v < 0 {
			c = -c
		}
		out = append(out, c)
	}
	return out
}

// qsgdFuzzEntry lays x out as the fuzz target's little-endian words.
func qsgdFuzzEntry(x []float64) []byte {
	b := make([]byte, 0, 8*len(x))
	for _, v := range x {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzQSGDMatchScalar: for any vector of up to 1024 float64 words (±0,
// subnormals, ±Inf, ±NaN, squares that underflow or overflow), any level
// count and any seed, AppendQuantized writes the words of the scalar
// definition, bit for bit, and leaves the generator where it does.
func FuzzQSGDMatchScalar(f *testing.F) {
	negZero := math.Copysign(0, -1)
	vectors := [][]float64{
		{},
		{negZero, 0, negZero},
		{1, -2, 0, 0.5, negZero},
		{5e-324, -5e-324, 1e-310, -2.2e-308},
		{1.5e-160, -1e-162, 3e-163},
		{1e200, -3e160, 1},
		{1e155, 1e155},
		{math.Inf(1), 1, -1},
		{math.NaN(), 2},
		{math.Copysign(math.NaN(), -1), -3, 4, negZero, math.Inf(-1)},
		randVec(1000, 9),
	}
	for i, x := range vectors {
		for _, levels := range []int{1, 16, 127, 1 << 52, 1<<52 + 1} {
			f.Add(qsgdFuzzEntry(x), levels, uint64(i))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, levels int, seed uint64) {
		if levels < 1 {
			t.Skip()
		}
		x := make([]float64, min(len(data)/8, 1024))
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		q, ref := NewQSGD(levels, seed), rng.New(seed)
		got, want := q.AppendQuantized(nil, x), quantizeReference(ref, x, levels)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("levels %d, word %d of %d: %v (%#x), scalar definition %v (%#x)",
					levels, i, len(want), got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		if q.RNGState() != ref.State() {
			t.Fatalf("levels %d, %d words: generator at %+v, scalar definition leaves it at %+v", levels, len(x), q.RNGState(), ref.State())
		}
	})
}
