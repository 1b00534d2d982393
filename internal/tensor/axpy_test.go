package tensor

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sapspsgd/internal/rng"
)

var recordFuzzCorpus = flag.Bool("record-fuzz-corpus", false,
	"rewrite testdata/fuzz/FuzzKernelsMatchScalar from TestKernelsMatchScalar's table")

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
	want := Clone(y)
	axpy(a, x, y)
	axpyGeneric(a, x, want)
	sameKernelBits(t, fmt.Sprintf("Axpy n=%d flags=%#x", n, flags), y, want)

	// AxpyRows: dst += g[p·stride]·src.Row(p) over the listed rows.
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
	want = Clone(dst)
	okGot := axpyRows(dst, src, g, stride, rows, idx)
	okWant := axpyRowsGeneric(want, src, g, stride, rows, idx)
	if !okGot || !okWant {
		t.Fatalf("AxpyRows n=%d rows=%d flags=%#x: kernel %v, scalar loop %v on in-range rows", n, rows, flags, okGot, okWant)
	}
	sameKernelBits(t, fmt.Sprintf("AxpyRows n=%d rows=%d flags=%#x", n, rows, flags), dst, want)
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
// weights, and the special values or seeded normal draws in every operand.
func TestKernelsMatchScalar(t *testing.T) {
	r := rng.New(34)
	normals := make([]float64, 29)
	for i := range normals {
		normals[i] = r.NormFloat64() * math.Pow(2, float64(r.Intn(40)-20))
	}
	corpus := map[string][]byte{}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 63, 64, 65, 256, 4095, 4096} {
		for rows := 0; rows <= 8; rows++ {
			for flags := byte(0); flags < 16; flags++ {
				for vi, vals := range [][]float64{nil, normals} {
					data := kernelInput(n, rows, flags, vals)
					checkKernels(t, data)
					if rows == n%9 && flags == byte(n%16) {
						corpus[fmt.Sprintf("n%d-rows%d-flags%d-vals%d", n, rows, flags, vi)] = data
					}
				}
			}
		}
	}
	if *recordFuzzCorpus {
		dir := filepath.Join("testdata", "fuzz", "FuzzKernelsMatchScalar")
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
}

// FuzzKernelsMatchScalar: any length up to 4096, any row count up to 8, any
// alignment and row order, and any float64 bits in every operand — the
// kernels equal the scalar loops by math.Float64bits.
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
			AxpyRows(make([]float64, tc.dstLen), NewMatrix(3, tc.cols), make([]float64, tc.weights), tc.stride, tc.idx)
		})
	}
	// Every weight in range at stride 0 and at a stride that ends exactly.
	src := NewMatrix(3, 5)
	AxpyRows(make([]float64, 5), src, []float64{1}, 0, []int32{2, 2, 2, 2, 2})
	AxpyRows(make([]float64, 5), src, make([]float64, 7), 3, []int32{2, 0, 1})
}
