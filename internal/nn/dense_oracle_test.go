package nn

import (
	"fmt"
	"math"
	"testing"

	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// The oracle: Dense.Forward and Dense.Backward as they stood before the
// multi-chain kernels — one tensor.Dot per output element, two tensor.Axpy
// per non-zero gradient, fresh zeroed matrices — kept verbatim (receiver
// renamed, the input cache passed in) as the definition of every output bit.
// Every multiply-add here and in the kernels is spelled `acc += a*b`, so a
// platform whose compiler fuses that form (arm64) fuses both alike.

func oracleDenseForward(d *Dense, x *tensor.Matrix) *tensor.Matrix {
	out := tensor.NewMatrix(x.Rows, d.OutDim)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		o := out.Row(i)
		for j := 0; j < d.OutDim; j++ {
			o[j] = tensor.Dot(d.w.Row(j), row) + d.b[j]
		}
	}
	return out
}

func oracleDenseBackward(d *Dense, x, dout *tensor.Matrix) *tensor.Matrix {
	dx := tensor.NewMatrix(x.Rows, d.InDim)
	for i := 0; i < x.Rows; i++ {
		xr := x.Row(i)
		dr := dout.Row(i)
		dxr := dx.Row(i)
		for j, g := range dr {
			if g == 0 {
				continue
			}
			d.db[j] += g
			tensor.Axpy(g, xr, d.dw.Row(j))
			tensor.Axpy(g, d.w.Row(j), dxr)
		}
	}
	return dx
}

// sameBits compares by math.Float64bits, so -0 ≠ +0 and an Inf of the wrong
// sign fails. NaNs compare equal to each other whatever their payload: which
// operand's payload survives NaN + NaN is the hardware's choice of register,
// not an addition order (seen on amd64 under go1.24: a dw entry 0xfff8… where
// the oracle has 0x7ff8…01), and no run that reaches a NaN reads its payload.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s[%d] = %v (%#x), oracle %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

var specials = []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 0}

// fillNormal draws v from N(0,1); with wild set, about one entry in eight is
// replaced by -0, ±Inf, NaN or +0.
func fillNormal(v []float64, r *rng.Source, wild bool) {
	for i := range v {
		v[i] = r.NormFloat64()
		if wild && r.Intn(8) == 0 {
			v[i] = specials[r.Intn(len(specials))]
		}
	}
}

// fillGrad fills a gradient matrix row by row: kind "zero" is all zeros,
// "dense" has no zero, "mixed" alternates all-zero rows, rows of ReLU-like
// half sparsity and rows salted with -0, ±Inf and NaN.
func fillGrad(g *tensor.Matrix, r *rng.Source, kind string) {
	for i := 0; i < g.Rows; i++ {
		row := g.Row(i)
		switch {
		case kind == "zero":
			tensor.Fill(row, 0)
		case kind == "dense":
			for j := range row {
				row[j] = r.NormFloat64() + 3 // never 0
			}
		case i%3 == 0 && g.Rows > 1:
			tensor.Fill(row, 0)
		case i%3 == 1:
			fillNormal(row, r, true)
		default:
			for j := range row {
				if row[j] = 0; r.Intn(2) == 0 {
					row[j] = r.NormFloat64()
				}
			}
		}
	}
}

// TestDenseKernelsMatchOracle pins the kernels to the oracle bit for bit over
// every lane tail on both lane axes (the forward's lanes run over out, dx's
// and dw's over in: n mod 8 and n mod 4 take every value), every ragged tail
// of the 4-row group (in for the forward, out and batch for the backward),
// every gradient sparsity, non-finite values everywhere, and two Backwards
// accumulating into the same un-zeroed dw/db.
func TestDenseKernelsMatchOracle(t *testing.T) {
	for _, out := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15} {
		for _, in := range []int{1, 2, 3, 6, 7, 13, 64, 256} {
			for _, batch := range []int{1, 2, 3, 8, 32} {
				for _, kind := range []string{"zero", "dense", "mixed"} {
					for _, wild := range []bool{false, true} {
						name := fmt.Sprintf("out%d/in%d/batch%d/%s/wild=%v", out, in, batch, kind, wild)
						r := rng.New(uint64(out*1000003 + in*1009 + batch*17 + len(kind)))
						got := NewDense(in, out, r)
						fillNormal(got.w.Data, r, wild)
						fillNormal(got.b, r, wild)
						fillNormal(got.dw.Data, r, false) // accumulators start dirty
						fillNormal(got.db, r, false)
						want := &Dense{InDim: in, OutDim: out, w: got.w.Clone(), b: tensor.Clone(got.b),
							dw: got.dw.Clone(), db: tensor.Clone(got.db)}

						for pass := 0; pass < 2; pass++ {
							x := tensor.NewMatrix(batch, in)
							fillNormal(x.Data, r, wild)
							dout := tensor.NewMatrix(batch, out)
							fillGrad(dout, r, kind)

							y := got.Forward(x, true)
							sameBits(t, name+" forward", y.Data, oracleDenseForward(want, x).Data)
							sameBits(t, name+" eval forward", got.Forward(x, false).Data, y.Data)
							dx := got.Backward(dout)
							sameBits(t, name+" dx", dx.Data, oracleDenseBackward(want, x, dout).Data)
							sameBits(t, name+" dw", got.dw.Data, want.dw.Data)
							sameBits(t, name+" db", got.db, want.db)
							// Back to the pool dirty: the next shapes' kernels
							// must write every element they return.
							tensor.PutMatrix(y)
							tensor.PutMatrix(dx)
						}
					}
				}
			}
		}
	}
}
