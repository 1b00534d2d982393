package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"sapspsgd/internal/rng"
)

// mulTransposedInput is one fuzz input: one byte of batch rows (mod 41),
// two of k (mod 301), one of w rows (mod 18), one of flags, then float64
// words the operands cycle through (specialValues when there are none).
// Flag bit 0 starts x one element into its allocation, bit 1 w; bit 2
// draws the bias from the values (it is −0 otherwise), bit 3 sets relu.
func mulTransposedInput(b, k, n int, flags byte, vals []float64) []byte {
	data := []byte{byte(b)}
	data = binary.LittleEndian.AppendUint16(data, uint16(k))
	data = append(data, byte(n), flags)
	for _, v := range vals {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
	}
	return data
}

// checkMulTransposed runs the dispatched kernel (assembly where the CPU has
// it) and the scalar loop on the same operands, into outputs filled with
// sentinels so an unwritten element shows, and compares every result by
// math.Float64bits, NaN payloads aside (DESIGN §8). It also holds the loop
// to the contract's chain, Dot(w.Row(j), x.Row(i)).
func checkMulTransposed(t *testing.T, data []byte) {
	if len(data) < 5 {
		return
	}
	b, k, n, flags := int(data[0])%41, int(binary.LittleEndian.Uint16(data[1:]))%301, int(data[3])%18, data[4]
	vals := specialValues
	if words := data[5:]; len(words) >= 8 {
		vals = make([]float64, len(words)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(words[8*i:]))
		}
	}
	// Operand o's element i is vals[(i·(o+1) + o) mod len(vals)].
	operand := func(rows, cols, o int, bit byte) *Matrix {
		off := int(flags>>bit) & 1
		v := make([]float64, rows*cols+off)[off:]
		for i := range v {
			v[i] = vals[(i*(o+1)+o)%len(vals)]
		}
		return MatrixFrom(rows, cols, v)
	}
	x, w := operand(b, k, 0, 0), operand(n, k, 1, 1)
	bias := make([]float64, n)
	Fill(bias, math.Copysign(0, -1))
	if flags&4 != 0 {
		bias = operand(1, n, 2, 0).Data
	}
	relu := flags&8 != 0
	// got is followed in its allocation by the rows a padded tile would
	// reach, which must keep the sentinel.
	const sentinel = -7.25e77
	buf := make([]float64, (b+8)*n)
	Fill(buf, sentinel)
	got, want := MatrixFrom(b, n, buf[:b*n]), NewMatrix(b, n)
	Fill(want.Data, 3.5e-77)
	mulTransposed(got, x, w, bias, relu)
	mulTransposedGeneric(want, x, w, bias, relu)
	what := fmt.Sprintf("MulTransposed b=%d k=%d n=%d flags=%#x", b, k, n, flags)
	sameKernelBits(t, what, got.Data, want.Data)
	for i, v := range buf[b*n:] {
		if v != sentinel {
			t.Fatalf("%s: wrote %v at out.Data[%d], past the last row", what, v, b*n+i)
		}
	}
	for i := 0; i < b; i++ {
		for j := 0; j < n; j++ {
			v := Dot(w.Row(j), x.Row(i))
			if flags&4 != 0 {
				v += bias[j]
			}
			if relu && (math.IsNaN(v) || v <= 0) {
				v = 0
			}
			sameKernelBits(t, fmt.Sprintf("%s out[%d][%d] against Dot", what, i, j),
				want.Data[i*n+j:i*n+j+1], []float64{v})
		}
	}
}

// TestMulTransposedMatchScalar pins the forward kernel to its scalar loop
// bit for bit over every batch size 0–40 (every lane tail of the eight-lane
// tile, one to five tiles), every w row count 0–17 (every tail of the
// four-row tile), k from 0 to 300 around the vector widths, unaligned x and
// w, each epilogue (no bias, bias, relu, both), and the special values or
// seeded normal draws in every operand.
func TestMulTransposedMatchScalar(t *testing.T) {
	r := rng.New(44)
	normals := make([]float64, 29)
	for i := range normals {
		normals[i] = r.NormFloat64() * math.Pow(2, float64(r.Intn(40)-20))
	}
	ks := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 63, 64, 65, 255, 256, 257, 300}
	corpus := map[string][]byte{}
	for b := 0; b <= 40; b++ {
		for n := 0; n <= 17; n++ {
			for vi, vals := range [][]float64{nil, normals} {
				k, flags := ks[(b*18+n+vi)%len(ks)], byte(b+2*n)%4
				for ep := byte(0); ep < 4; ep++ {
					data := mulTransposedInput(b, k, n, flags|ep<<2, vals)
					checkMulTransposed(t, data)
					switch {
					case n != b%18:
					case ep == 0:
						corpus[fmt.Sprintf("b%d-k%d-n%d-flags%d-vals%d", b, k, n, flags, vi)] = data
					case int(ep) == 1+b%3:
						corpus[fmt.Sprintf("b%d-k%d-n%d-flags%d-vals%d-ep%d", b, k, n, flags, vi, ep)] = data
					}
				}
			}
		}
	}
	writeFuzzCorpus(t, "FuzzMulTransposedMatchScalar", corpus)
}

// FuzzMulTransposedMatchScalar: any batch up to 40 rows, any k up to 300,
// any w up to 17 rows, either alignment, any epilogue and any float64 bits
// in every operand — the kernel equals the scalar loop by math.Float64bits.
func FuzzMulTransposedMatchScalar(f *testing.F) {
	f.Add(mulTransposedInput(17, 65, 7, 0b1111, nil))
	f.Fuzz(checkMulTransposed)
}

// TestMulTransposedRejects: operands whose shapes do not chain panic on
// every path instead of reading past a slice.
func TestMulTransposedRejects(t *testing.T) {
	for _, tc := range []struct {
		name    string
		out     *Matrix
		x, w    *Matrix
		b       []float64
		corrupt func(out, x, w *Matrix)
	}{
		{"inner dimensions differ", NewMatrix(2, 3), NewMatrix(2, 4), NewMatrix(3, 5), make([]float64, 3), nil},
		{"out has too few rows", NewMatrix(1, 3), NewMatrix(2, 4), NewMatrix(3, 4), make([]float64, 3), nil},
		{"out has too many columns", NewMatrix(2, 4), NewMatrix(2, 4), NewMatrix(3, 4), make([]float64, 3), nil},
		{"bias shorter than w", NewMatrix(2, 3), NewMatrix(2, 4), NewMatrix(3, 4), make([]float64, 2), nil},
		{"bias longer than w", NewMatrix(2, 3), NewMatrix(2, 4), NewMatrix(3, 4), make([]float64, 4), nil},
		{"x shorter than its shape", NewMatrix(2, 3), NewMatrix(2, 4), NewMatrix(3, 4), make([]float64, 3),
			func(_, x, _ *Matrix) { x.Data = x.Data[:7] }},
		{"w shorter than its shape", NewMatrix(2, 3), NewMatrix(2, 4), NewMatrix(3, 4), make([]float64, 3),
			func(_, _, w *Matrix) { w.Data = w.Data[:11] }},
		{"out shorter than its shape", NewMatrix(2, 3), NewMatrix(2, 4), NewMatrix(3, 4), make([]float64, 3),
			func(out, _, _ *Matrix) { out.Data = out.Data[:5] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.corrupt != nil {
				tc.corrupt(tc.out, tc.x, tc.w)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			MulTransposedInto(tc.out, tc.x, tc.w, tc.b, false)
		})
	}
}
