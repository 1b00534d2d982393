package tensor

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sapspsgd/internal/rng"
)

var recordFuzzCorpus = flag.Bool("record-fuzz-corpus", false,
	"rewrite the kernels' seed corpora under testdata/fuzz from the tables of the tests that run")

// specialValues meet in every operand of the kernel checks: ±0, ±Inf, NaN of
// both signs, the smallest and largest subnormals, values whose products
// underflow into subnormals or overflow, and a few ordinary ones. Seventeen
// of them, a prime, so operands cycling through them at different strides
// pair every value with every other.
var specialValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(math.NaN(), -1),
	5e-324, -5e-324, 2.225073858507201e-308, 1e-160, -1e160, math.MaxFloat64,
	-1.5, 1, 3.25, 0.1, -2.5,
}

// kernelInput is one fuzz input: two bytes of length (mod 4097), one of
// row count (mod 9: no row, a tail alone, a four-row group, both), one of
// flags, then float64 words the operands cycle through (specialValues when
// there are none). Flag bit 0 starts dst one element into its allocation,
// bit 1 the rows, so vector loads and stores are unaligned; bit 2 lists the
// rows in reverse; bit 3 reads the weights at stride 3 and repeats a row.
func kernelInput(n, rows int, flags byte, vals []float64) []byte {
	data := binary.LittleEndian.AppendUint16(nil, uint16(n))
	data = append(data, byte(rows), flags)
	for _, v := range vals {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
	}
	return data
}

// checkKernels runs the dispatched kernels (assembly where the CPU has it)
// and the scalar loops on the same operands and compares every result by
// math.Float64bits. NaN payloads are exempt (DESIGN §8): which operand's
// payload survives NaN + NaN is the hardware's choice.
func checkKernels(t *testing.T, data []byte) {
	if len(data) < 4 {
		return
	}
	n, rows, flags := int(binary.LittleEndian.Uint16(data))%4097, int(data[2])%9, data[3]
	vals := specialValues
	if words := data[4:]; len(words) >= 8 {
		vals = make([]float64, len(words)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(words[8*i:]))
		}
	}
	// Operand o's element i is vals[(i·(o+1) + o) mod len(vals)].
	fill := func(v []float64, o int) []float64 {
		for i := range v {
			v[i] = vals[(i*(o+1)+o)%len(vals)]
		}
		return v
	}
	off := func(bit byte) int { return int(flags>>bit) & 1 }

	// Axpy: y += a·x.
	a := vals[len(vals)/2]
	x := fill(make([]float64, n+off(1)), 1)[off(1):]
	y := fill(make([]float64, n+off(0)), 0)[off(0):]
	want := slices.Clone(y)
	axpy(a, x, y)
	axpyGeneric(a, x, want)
	sameKernelBits(t, fmt.Sprintf("Axpy n=%d flags=%#x", n, flags), y, want)

	// AxpyRowsInto: dst = +0 + g[p·stride]·src.Row(p) over the listed rows,
	// into a dst that arrives dirty.
	stride := 1 + 2*off(3)
	src := fill(make([]float64, rows*n+off(1)), 2)[off(1):]
	g := fill(make([]float64, max(rows*stride, 1)), 3)
	idx := make([]int32, rows)
	for i := range idx {
		idx[i] = int32(i)
		if off(2) == 1 {
			idx[i] = int32(rows - 1 - i)
		}
	}
	if off(3) == 1 && rows > 1 {
		idx[rows-1] = idx[0]
	}
	dst := fill(make([]float64, n+off(0)), 4)[off(0):]
	want = slices.Clone(dst)
	okGot := axpyRows(dst, src, g, stride, rows, idx)
	okWant := axpyRowsGeneric(want, src, g, stride, rows, idx)
	if !okGot || !okWant {
		t.Fatalf("AxpyRowsInto n=%d rows=%d flags=%#x: kernel %v, scalar loop %v on in-range rows", n, rows, flags, okGot, okWant)
	}
	sameKernelBits(t, fmt.Sprintf("AxpyRowsInto n=%d rows=%d flags=%#x", n, rows, flags), dst, want)

	// Midpoint: x = 0.5·(x + v). Element i pairs vals[i mod L] with
	// vals[(i + i/L) mod L], so from n = L² on every value meets every
	// other, itself included: MaxFloat64 with MaxFloat64 overflows before
	// the halving, and halving a subnormal apart rounds where halving the
	// sum need not.
	L := len(vals)
	mx := make([]float64, n+off(0))[off(0):]
	mv := make([]float64, n+off(1))[off(1):]
	for i := range mx {
		mx[i], mv[i] = vals[i%L], vals[(i+i/L)%L]
	}
	want = slices.Clone(mx)
	midpoint(mx, mv)
	midpointGeneric(want, mv)
	sameKernelBits(t, fmt.Sprintf("Midpoint n=%d flags=%#x", n, flags), mx, want)

	// QuantizeInto: out = ±(⌊a⌋ + [u < a − ⌊a⌋]) with a = |x|/norm·s, the
	// norm and the level count taken from the values at n.
	qx := fill(make([]float64, n+off(0)), 5)[off(0):]
	qu := fill(make([]float64, n+off(1)), 6)[off(1):]
	norm, s := vals[n%L], vals[(n/2+3)%L]
	out := fill(make([]float64, n), 7)
	want = slices.Clone(out)
	quantize(out, qx, qu, norm, s)
	quantizeGeneric(want, qx, qu, norm, s)
	sameKernelBits(t, fmt.Sprintf("QuantizeInto n=%d flags=%#x norm=%v s=%v", n, flags, norm, s), out, want)

}

func sameKernelBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: [%d] = %v (%#x), scalar loop %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestKernelsMatchScalar pins the vector kernels to the scalar loops bit for
// bit over every lane tail (n mod 8 and mod 4), every row count around the
// four-row group, unaligned operands, reversed and repeated rows, strided
// weights, and the special values, seeded normal draws or extremes in every
// operand.
func TestKernelsMatchScalar(t *testing.T) {
	r := rng.New(34)
	normals := make([]float64, 29)
	for i := range normals {
		normals[i] = r.NormFloat64() * math.Pow(2, float64(r.Intn(40)-20))
	}
	// extremes are the operands whose sums leave the normal range: ±MaxFloat64
	// and its neighbours, whose pairwise sums overflow before any halving,
	// and subnormals, whose halving rounds.
	extremes := []float64{
		math.MaxFloat64, -math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0), 1e308, -1e308,
		5e-324, -5e-324, 1.5e-323, 2.225073858507201e-308, -2.2250738585072014e-308, 1,
	}
	corpus := map[string][]byte{}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 23, 63, 64, 65, 256, 4095, 4096} {
		for rows := 0; rows <= 8; rows++ {
			for flags := byte(0); flags < 16; flags++ {
				for vi, vals := range [][]float64{nil, normals, extremes} {
					data := kernelInput(n, rows, flags, vals)
					checkKernels(t, data)
					if rows == n%9 && flags == byte(n%16) {
						corpus[fmt.Sprintf("n%d-rows%d-flags%d-vals%d", n, rows, flags, vi)] = data
					}
				}
			}
		}
	}
	writeFuzzCorpus(t, "FuzzKernelsMatchScalar", corpus)
}

// writeFuzzCorpus replaces testdata/fuzz/<target> with one file per corpus
// entry when -record-fuzz-corpus is set.
func writeFuzzCorpus(t *testing.T, target string, corpus map[string][]byte) {
	if !*recordFuzzCorpus {
		return
	}
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range corpus {
		file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzKernelsMatchScalar: any length up to 4096, any row count up to 8, any
// alignment and row order, and any float64 bits in every operand and scalar
// — the kernels equal the scalar loops by math.Float64bits.
func FuzzKernelsMatchScalar(f *testing.F) {
	f.Add(kernelInput(4096, 5, 0b1011, nil))
	f.Fuzz(checkKernels)
}

// TestAxpyRowsRejects: a row outside src or g, a mis-sized dst or a
// negative stride panics on every path instead of reading past a slice.
func TestAxpyRowsRejects(t *testing.T) {
	for _, tc := range []struct {
		name         string
		cols, dstLen int // src is 3 × cols
		weights      int
		stride       int
		idx          []int32
	}{
		{"row past src, in a group", 5, 5, 3, 1, []int32{0, 1, 2, 3}},
		{"row past src, alone", 5, 5, 3, 1, []int32{3}},
		{"negative row", 5, 5, 3, 1, []int32{0, -1}},
		{"weight past g", 5, 5, 4, 2, []int32{2}},
		{"no weights at stride 0", 5, 5, 0, 0, []int32{0}},
		{"empty rows, row past src", 0, 0, 3, 1, []int32{7}},
		{"dst shorter than a row", 5, 4, 3, 1, []int32{0}},
		{"negative stride", 5, 5, 3, -1, []int32{0}},
		{"stride past any sum", 5, 5, 3, math.MaxInt, []int32{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			AxpyRowsInto(make([]float64, tc.dstLen), NewMatrix(3, tc.cols), make([]float64, tc.weights), tc.stride, tc.idx)
		})
	}
	// Every weight in range at stride 0 and at a stride that ends exactly.
	src := NewMatrix(3, 5)
	AxpyRowsInto(make([]float64, 5), src, []float64{1}, 0, []int32{2, 2, 2, 2, 2})
	AxpyRowsInto(make([]float64, 5), src, make([]float64, 7), 3, []int32{2, 0, 1})
}

// TestMidpointRejects: operands of different lengths panic on every path
// instead of reading or writing past a slice.
func TestMidpointRejects(t *testing.T) {
	for _, tc := range []struct{ x, v int }{{5, 4}, {4, 5}, {0, 1}, {9, 0}} {
		t.Run(fmt.Sprintf("x%d-v%d", tc.x, tc.v), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			Midpoint(make([]float64, tc.x), make([]float64, tc.v))
		})
	}
	Midpoint(nil, nil)
}

// BenchmarkMidpoint times one rendezvous average on async64's model size
// (4,810 words) over 64 pairs of models taken in turn, so that each pair
// arrives out of cache as in a 64-rank fleet: the scalar loop against the
// dispatched kernel.
func BenchmarkMidpoint(b *testing.B) {
	const models, dim = 64, 4810
	r := rng.New(5)
	xs, vs := make([][]float64, models), make([][]float64, models)
	for i := range xs {
		xs[i], vs[i] = make([]float64, dim), make([]float64, dim)
		for j := range xs[i] {
			xs[i][j], vs[i][j] = r.NormFloat64(), r.NormFloat64()
		}
	}
	for _, bc := range []struct {
		name string
		f    func(x, v []float64)
	}{{"scalar", midpointGeneric}, {"kernel", midpoint}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(2 * 8 * dim)
			for i := 0; i < b.N; i++ {
				bc.f(xs[i%models], vs[i%models])
			}
		})
	}
}
