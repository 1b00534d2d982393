package tensor

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// awkward is the values a words ↔ bytes path is most likely to mangle: both
// zeros, both infinities, NaNs that differ only in payload or sign, and
// subnormals.
var awkward = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff0000000000001),
	math.Float64frombits(0xfff8dead0000beef), math.Float64frombits(0xffffffffffffffff),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// TestWordsRoundTripBitExact: for random lengths (0 included) of random bit
// patterns salted with the awkward values, encode → decode returns the same
// bits word for word, through every entry point, and the encoding is exactly
// eight little-endian bytes a word behind whatever dst already held.
func TestWordsRoundTripBitExact(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(70)
		if trial < 3 {
			n = trial // 0, 1, 2
		}
		v := make([]float64, n)
		for i := range v {
			if r.Intn(3) == 0 {
				v[i] = awkward[r.Intn(len(awkward))]
			} else {
				v[i] = math.Float64frombits(r.Uint64())
			}
		}
		prefix := []byte("keep")[:r.Intn(5)]
		b := AppendWords(append([]byte(nil), prefix...), v)
		if string(b[:len(prefix)]) != string(prefix) || len(b) != len(prefix)+8*n {
			t.Fatalf("n=%d: %d bytes behind a %d-byte prefix, want %d", n, len(b)-len(prefix), len(prefix), 8*n)
		}
		b = b[len(prefix):]
		for i, x := range v {
			bits := math.Float64bits(x)
			for k := 0; k < 8; k++ {
				if b[8*i+k] != byte(bits>>(8*k)) {
					t.Fatalf("n=%d word %d (%016x) byte %d is %02x: not little-endian bits", n, i, bits, k, b[8*i+k])
				}
			}
		}
		got, err := Words(b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		into := make([]float64, n)
		if err := DecodeWords(into, b); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sec, rest, err := CutSection(append(AppendVector(nil, v), 0xAB))
		if err != nil || len(rest) != 1 || rest[0] != 0xAB {
			t.Fatalf("n=%d: section cut left %x, error %v", n, rest, err)
		}
		viaSection, err := Words(sec)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if (n == 0) != (got == nil) {
			t.Fatalf("n=%d decoded as %#v: only no words decode as nil", n, got)
		}
		for i, x := range v {
			want := math.Float64bits(x)
			for name, w := range map[string][]float64{"Words": got, "DecodeWords": into, "section": viaSection} {
				if math.Float64bits(w[i]) != want {
					t.Fatalf("n=%d word %d via %s: %016x, want %016x", n, i, name, math.Float64bits(w[i]), want)
				}
			}
		}
	}
}

// TestWordsLengthChecks: a body that is not whole words, or not the number of
// words the caller declared, is an error and never a short or padded vector.
func TestWordsLengthChecks(t *testing.T) {
	body := AppendWords(nil, []float64{1, 2, 3})
	for cut := 1; cut < 8; cut++ {
		if v, err := Words(body[:len(body)-cut]); err == nil {
			t.Errorf("Words took %d bytes and returned %v", len(body)-cut, v)
		}
	}
	for _, declared := range []int{0, 2, 4} {
		if err := DecodeWords(make([]float64, declared), body); err == nil {
			t.Errorf("DecodeWords filled %d words from a body of 3", declared)
		}
	}
	if err := DecodeWords(make([]float64, 3), body[:23]); err == nil {
		t.Error("DecodeWords filled 3 words from 23 bytes")
	}
}

// TestCutSectionRefusesOverlongLength: a section whose length prefix runs past
// the bytes present — by one or by nearly 2^64 — is refused from the prefix alone.
func TestCutSectionRefusesOverlongLength(t *testing.T) {
	sec := AppendSection(nil, []byte("abc"))
	if body, rest, err := CutSection(sec); err != nil || string(body) != "abc" || len(rest) != 0 {
		t.Fatalf("intact section: %q, %q, %v", body, rest, err)
	}
	for cut := 1; cut <= len(sec); cut++ {
		if body, _, err := CutSection(sec[:len(sec)-cut]); err == nil {
			t.Errorf("section cut short by %d read as %q", cut, body)
		}
	}
	huge := append(BeginSection(nil, -1), 1, 2, 3) // a length prefix of 2^64-1
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := CutSection(huge); err == nil {
			t.Error("a 2^64-byte section was cut from 3 bytes")
		}
	})
	// The error value is the only thing built.
	if allocs > 4 {
		t.Errorf("refusing an overlong section made %v allocations", allocs)
	}
}

// FuzzWordsMatchLoop: for any bits — NaN payloads, −0, ±Inf, subnormals —
// any length up to 1,024 words and any of the eight byte alignments,
// AppendWords and DecodeWords equal the per-word loops that define the
// layout, bit for bit, and AppendWords leaves what dst already held alone.
// The input is an alignment byte, then the words' bytes.
func FuzzWordsMatchLoop(f *testing.F) {
	r := rand.New(rand.NewSource(43))
	for shift, n := range []int{0, 1, len(awkward), 1000, 1024} {
		v := make([]float64, n)
		for i := range v {
			if i < len(awkward) {
				v[i] = awkward[i]
			} else {
				v[i] = math.Float64frombits(r.Uint64())
			}
		}
		words := make([]byte, 8*n)
		putWordsLoop(words, v)
		f.Add(append([]byte{byte(2*shift + 1)}, words...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shift := int(data[0] % 8)
		n := min((len(data)-1)/8, 1024)
		body := data[1 : 1+8*n]
		v := make([]float64, n)
		getWordsLoop(v, body)

		prefix := bytes.Repeat([]byte{0xA5}, shift)
		got := AppendWords(append([]byte(nil), prefix...), v)
		want := make([]byte, 8*n)
		putWordsLoop(want, v)
		if !bytes.Equal(want, body) {
			t.Fatalf("%d words: the loops do not round-trip their own bytes", n)
		}
		if !bytes.Equal(got[:shift], prefix) || !bytes.Equal(got[shift:], want) {
			t.Fatalf("%d words behind %d bytes: AppendWords wrote %x, the loop %x", n, shift, got, want)
		}

		// Decode from a source shift bytes into its allocation.
		src := append(make([]byte, shift), body...)[shift:]
		dec := make([]float64, n)
		if err := DecodeWords(dec, src); err != nil {
			t.Fatal(err)
		}
		for i := range v {
			if math.Float64bits(dec[i]) != math.Float64bits(v[i]) {
				t.Fatalf("%d words: DecodeWords word %d is %016x, the loop's %016x", n, i, math.Float64bits(dec[i]), math.Float64bits(v[i]))
			}
		}
	})
}
