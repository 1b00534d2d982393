package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"sapspsgd/internal/rng"
)

// maskedColumnsInput is one fuzz input: one byte of rows (mod 41), one of
// columns (mod 34), one of flags, then float64 words the operands cycle
// through (specialValues when there are none). Flag bit 0 passes no y (a
// layer without a ReLU), bit 1 starts g one element into its allocation,
// bit 2 y.
func maskedColumnsInput(rows, n int, flags byte, vals []float64) []byte {
	data := []byte{byte(rows), byte(n), flags}
	for _, v := range vals {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
	}
	return data
}

// checkMaskedColumns runs the dispatched pass (assembly where the CPU has
// it) and the scalar loop on the same operands, into outputs that arrive
// dirty, and compares the sums by math.Float64bits, NaN payloads aside
// (DESIGN §8), and the lists exactly. It also holds the loop to the
// contract: each list is the passed non-zero rows, each sum the gated
// column's chain from +0.
func checkMaskedColumns(t *testing.T, data []byte) {
	if len(data) < 3 {
		return
	}
	rows, n, flags := int(data[0])%41, int(data[1])%34, data[2]
	vals := specialValues
	if words := data[3:]; len(words) >= 8 {
		vals = make([]float64, len(words)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(words[8*i:]))
		}
	}
	operand := func(o int, bit byte) *Matrix {
		off := int(flags>>bit) & 1
		v := make([]float64, rows*n+off)[off:]
		for i := range v {
			v[i] = vals[(i*(o+1)+o)%len(vals)]
		}
		return MatrixFrom(rows, n, v)
	}
	g := operand(0, 1)
	var y *Matrix
	if flags&1 == 0 {
		y = operand(1, 2)
	}
	what := fmt.Sprintf("MaskedColumns rows=%d n=%d flags=%#x", rows, n, flags)
	dirty := func() ([]float64, []int32, []int32) {
		sums, lists, ends := make([]float64, n), make([]int32, rows*n), make([]int32, n)
		Fill(sums, -7.25e77)
		for i := range lists {
			lists[i] = -1
		}
		for i := range ends {
			ends[i] = -1
		}
		return sums, lists, ends
	}
	sums, lists, ends := dirty()
	wantSums, wantLists, wantEnds := dirty()
	MaskedColumns(sums, lists, ends, g, y)
	var yd []float64
	if y != nil {
		yd = y.Data
	}
	maskedColumnsGeneric(wantSums, wantLists, wantEnds, g.Data, yd, rows, n, 0)
	sameKernelBits(t, what+" sums", sums, wantSums)
	for j := 0; j < n; j++ {
		if ends[j] != wantEnds[j] {
			t.Fatalf("%s: column %d ends at %d, scalar loop %d", what, j, ends[j], wantEnds[j])
		}
		s, list := 0.0, []int32(nil)
		for i := 0; i < rows; i++ {
			v := g.Row(i)[j]
			if y != nil && (math.IsNaN(y.Row(i)[j]) || y.Row(i)[j] <= 0) {
				v = 0
			}
			s += v
			if v != 0 {
				list = append(list, int32(i))
			}
		}
		sameKernelBits(t, fmt.Sprintf("%s column %d against its chain", what, j), wantSums[j:j+1], []float64{s})
		got, want := lists[j*rows:ends[j]], wantLists[j*rows:wantEnds[j]]
		if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(want) != fmt.Sprint(append([]int32{}, list...)) {
			t.Fatalf("%s: column %d lists %v, scalar loop %v, contract %v", what, j, got, want, list)
		}
	}
}

// TestMaskedColumnsMatchScalar pins the column pass to its scalar loop over
// every row count 0–40, every column count 0–33 (every tail of the
// four-column group, up to eight groups), with and without y, unaligned
// operands, and the special values or seeded normal draws in every operand.
func TestMaskedColumnsMatchScalar(t *testing.T) {
	r := rng.New(46)
	normals := make([]float64, 29)
	for i := range normals {
		normals[i] = r.NormFloat64()
		if r.Intn(3) == 0 {
			normals[i] = 0
		}
	}
	corpus := map[string][]byte{}
	for rows := 0; rows <= 40; rows++ {
		for n := 0; n <= 33; n++ {
			for vi, vals := range [][]float64{nil, normals} {
				flags := byte(rows+n+vi) % 8
				data := maskedColumnsInput(rows, n, flags, vals)
				checkMaskedColumns(t, data)
				if n == rows%34 {
					corpus[fmt.Sprintf("rows%d-n%d-flags%d-vals%d", rows, n, flags, vi)] = data
				}
			}
		}
	}
	writeFuzzCorpus(t, "FuzzMaskedColumnsMatchScalar", corpus)
}

// FuzzMaskedColumnsMatchScalar: any rows up to 40, any columns up to 33,
// with or without y, either alignment and any float64 bits in every
// operand — the kernel equals the scalar loop, sums by math.Float64bits and
// lists exactly.
func FuzzMaskedColumnsMatchScalar(f *testing.F) {
	f.Add(maskedColumnsInput(17, 13, 0b110, nil))
	f.Fuzz(checkMaskedColumns)
}

// TestMaskedColumnsRejects: outputs or a y whose shapes do not match the
// gradient panic on every path instead of writing past a slice.
func TestMaskedColumnsRejects(t *testing.T) {
	for _, tc := range []struct {
		name               string
		sums, lists, ends  int
		yRows, yCols, gLen int
	}{
		{"sums short", 2, 12, 3, 4, 3, 12},
		{"ends long", 3, 12, 4, 4, 3, 12},
		{"lists short", 3, 11, 3, 4, 3, 12},
		{"y has other rows", 3, 12, 3, 5, 3, 12},
		{"y has other columns", 3, 12, 3, 4, 2, 12},
		{"g shorter than its shape", 3, 12, 3, 4, 3, 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			g := NewMatrix(4, 3)
			g.Data = g.Data[:tc.gLen]
			MaskedColumns(make([]float64, tc.sums), make([]int32, tc.lists), make([]int32, tc.ends), g, NewMatrix(tc.yRows, tc.yCols))
		})
	}
}
