package nn

import (
	"fmt"
	"math"
	"slices"
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
// the lane tails on every lane axis (the forward's lanes run over the batch,
// eight to a tile: one to five tiles, full and ragged — the tensor package's
// kernel table takes every batch up to 40; dx's and dw's over in: n mod 8 and
// n mod 4 take every value), every ragged tail of the 4-row group (out for
// the forward and the backward, batch for the backward),
// every gradient sparsity, non-finite values everywhere, and two Backwards
// writing over dw/db that arrive dirty — the oracle's are cleared first, as
// ZeroGrads cleared them for the accumulating layer.
func TestDenseKernelsMatchOracle(t *testing.T) {
	for _, out := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15} {
		for _, in := range []int{1, 2, 3, 6, 7, 13, 64, 256} {
			for _, batch := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 32, 33} {
				for _, kind := range []string{"zero", "dense", "mixed"} {
					for _, wild := range []bool{false, true} {
						name := fmt.Sprintf("out%d/in%d/batch%d/%s/wild=%v", out, in, batch, kind, wild)
						r := rng.New(uint64(out*1000003 + in*1009 + batch*17 + len(kind)))
						got := NewDense(in, out, r)
						fillNormal(got.w.Data, r, wild)
						fillNormal(got.b, r, wild)
						fillNormal(got.dw.Data, r, false) // gradients start dirty
						fillNormal(got.db, r, false)
						want := &Dense{InDim: in, OutDim: out,
							w: tensor.MatrixFrom(out, in, slices.Clone(got.w.Data)), b: slices.Clone(got.b),
							dw: tensor.MatrixFrom(out, in, slices.Clone(got.dw.Data)), db: slices.Clone(got.db)}

						for pass := 0; pass < 2; pass++ {
							x := tensor.NewMatrix(batch, in)
							fillNormal(x.Data, r, wild)
							dout := tensor.NewMatrix(batch, out)
							fillGrad(dout, r, kind)

							y := got.Forward(x, true)
							sameBits(t, name+" forward", y.Data, oracleDenseForward(want, x).Data)
							sameBits(t, name+" eval forward", got.Forward(x, false).Data, y.Data)
							dx := got.Backward(dout)
							tensor.Fill(want.dw.Data, 0)
							tensor.Fill(want.db, 0)
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

// TestFusedDenseReLUMatchesPair: a Dense with its ReLU fused in gives the
// output, dx, dW and db of the unfused pair — Dense.Forward then
// ReLU.Forward, ReLU.Backward then Dense.Backward into cleared gradients —
// bit for bit. The shapes cover the forward tile's lane tails and the
// column pass's four-column groups and tails; the inputs, weights and
// biases are salted with −0, ±Inf and NaN; the fused layer's gradients
// arrive dirty; and each case also runs as a bottom layer, which computes
// no dx and must leave the same dW and db.
func TestFusedDenseReLUMatchesPair(t *testing.T) {
	for _, out := range []int{1, 3, 4, 5, 8, 9, 17} {
		for _, in := range []int{1, 7, 64} {
			for _, batch := range []int{1, 3, 8, 9, 17, 33} {
				for _, kind := range []string{"zero", "dense", "mixed"} {
					for _, wild := range []bool{false, true} {
						name := fmt.Sprintf("out%d/in%d/batch%d/%s/wild=%v", out, in, batch, kind, wild)
						r := rng.New(uint64(out*7919 + in*131 + batch*7 + len(kind)))
						fused := NewDense(in, out, r)
						fused.relu = true
						fillNormal(fused.w.Data, r, wild)
						fillNormal(fused.b, r, wild)
						x := tensor.NewMatrix(batch, in)
						fillNormal(x.Data, r, wild)
						dout := tensor.NewMatrix(batch, out)
						fillGrad(dout, r, kind)
						checkFusedAgainstPair(t, name, fused, x, dout, r)
					}
				}
			}
		}
	}
}

// TestFusedDenseReLUGatedOffUnit: a unit that fires on no row of the batch
// passes no gradient back, so its dW row and db entry come out +0 over
// gradients that arrive as NaN — written, not left — and its column of dx
// takes nothing from it.
func TestFusedDenseReLUGatedOffUnit(t *testing.T) {
	r := rng.New(18)
	fused := NewDense(6, 5, r)
	fused.relu = true
	fused.b[2] = -1e6 // x and w are N(0,1) draws: unit 2 never fires
	x := tensor.NewMatrix(9, 6)
	fillNormal(x.Data, r, false)
	dout := tensor.NewMatrix(9, 5)
	fillGrad(dout, r, "dense")
	checkFusedAgainstPair(t, "gated-off unit", fused, x, dout, r)
	tensor.Fill(fused.dw.Data, math.NaN())
	tensor.Fill(fused.db, math.NaN())
	tensor.PutMatrix(fused.Forward(x, true))
	tensor.PutMatrix(fused.Backward(dout))
	for k, v := range append(fused.dw.Row(2), fused.db[2]) {
		if math.Float64bits(v) != 0 {
			t.Fatalf("gradient %d of the unit that never fired = %v (%#x), want +0", k, v, math.Float64bits(v))
		}
	}
}

// checkFusedAgainstPair runs fused (whose relu is set) and the unfused pair
// built from copies of its weights on x and dout, as a middle layer and as
// a bottom layer, and compares every result by sameBits.
func checkFusedAgainstPair(t *testing.T, name string, fused *Dense, x, dout *tensor.Matrix, r *rng.Source) {
	t.Helper()
	in, out := fused.InDim, fused.OutDim
	dense := &Dense{InDim: in, OutDim: out, w: tensor.MatrixFrom(out, in, slices.Clone(fused.w.Data)), b: slices.Clone(fused.b),
		dw: tensor.NewMatrix(out, in), db: make([]float64, out)}
	relu := NewReLU()
	pre := dense.Forward(x, true)
	want := relu.Forward(pre, true)
	wantDx := dense.Backward(relu.Backward(dout))

	for _, bottom := range []bool{false, true} {
		what := fmt.Sprintf("%s bottom=%v", name, bottom)
		fillNormal(fused.dw.Data, r, true) // gradients arrive dirty
		fillNormal(fused.db, r, true)
		y := fused.Forward(x, true)
		sameBits(t, what+" forward", y.Data, want.Data)
		if bottom {
			fused.backwardParams(dout)
		} else {
			dx := fused.Backward(dout)
			sameBits(t, what+" dx", dx.Data, wantDx.Data)
			tensor.PutMatrix(dx)
		}
		sameBits(t, what+" dw", fused.dw.Data, dense.dw.Data)
		sameBits(t, what+" db", fused.db, dense.db)
		sameBits(t, what+" eval forward", fused.Forward(x, false).Data, want.Data)
		tensor.PutMatrix(y) // back to the pool dirty
	}
}
