package nn

import (
	"fmt"
	"math"

	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// Dense is a fully connected layer: y = x·Wᵀ + b.
type Dense struct {
	InDim, OutDim int
	w             *tensor.Matrix // OutDim × InDim
	b             []float64
	dw            *tensor.Matrix
	db            []float64
	x             *tensor.Matrix // cached input
	idx           []int32        // row-index scratch: every k in Forward, the non-zero gradients in Backward
}

// NewDense returns a dense layer with He-initialized weights.
func NewDense(in, out int, r *rng.Source) *Dense { return newDense(in, out, r, nil) }

// newDense is NewDense with its tensors taken from a.
func newDense(in, out int, r *rng.Source, a *arena) *Dense {
	if in < 1 || out < 1 {
		panic(fmt.Sprintf("nn: Dense(%d,%d)", in, out))
	}
	w, dw := a.take(out * in)
	b, db := a.take(out)
	d := &Dense{
		InDim:  in,
		OutDim: out,
		w:      tensor.MatrixFrom(out, in, w),
		b:      b,
		dw:     tensor.MatrixFrom(out, in, dw),
		db:     db,
	}
	std := math.Sqrt(2 / float64(in))
	for i := range d.w.Data {
		d.w.Data[i] = std * r.NormFloat64()
	}
	return d
}

// Forward computes the affine map for the batch as an ikj product over a
// pooled Wᵀ: each output row starts at +0 and takes x[i][k]·Wᵀ[k] for every
// k, ascending, zeros included, then b — the chain tensor.Dot(w[j], x[i]) +
// b[j] gives each unit, one vector lane per unit (DESIGN §8 "Compute
// kernels"). The result comes from the tensor pool and belongs to the caller.
func (d *Dense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != d.InDim {
		panic(fmt.Sprintf("nn: Dense input %d, want %d", x.Cols, d.InDim))
	}
	if train {
		d.x = x
	}
	wT := tensor.GetMatrix(d.InDim, d.OutDim)
	tensor.TransposeInto(wT, d.w)
	all := d.scratch(d.InDim)
	for k := range all {
		all[k] = int32(k)
	}
	out := tensor.GetMatrix(x.Rows, d.OutDim)
	tensor.Fill(out.Data, 0)
	for i := 0; i < x.Rows; i++ {
		o := out.Row(i)
		tensor.AxpyRows(o, wT, x.Row(i), 1, all)
		tensor.Add(o, o, d.b)
	}
	tensor.PutMatrix(wT)
	return out
}

// scratch returns the layer's index buffer, grown to n entries.
func (d *Dense) scratch(n int) []int32 {
	if len(d.idx) < n {
		d.idx = make([]int32, n)
	}
	return d.idx[:n]
}

// nonZero writes the positions p, ascending, with g[p*stride] != 0 into idx
// and returns how many there are. The count advances without a branch: half
// of a ReLU-gated gradient is zero in no predictable pattern.
func nonZero(idx []int32, g []float64, stride int) int {
	n := 0
	for p, q := 0, 0; q < len(g); p, q = p+1, q+stride {
		idx[n] = int32(p)
		if g[q] != 0 {
			n++
		}
	}
	return n
}

// Backward accumulates dW, db and returns dx (from the tensor pool, the
// caller's). Each dx row takes g·w[j] over its non-zero gradients in
// ascending j, each dw row (and db entry) takes g·x[i] over its non-zero
// gradients in ascending i. A zero gradient is skipped, not multiplied:
// 0·Inf is NaN.
func (d *Dense) Backward(dout *tensor.Matrix) *tensor.Matrix { return d.backward(dout, true) }

// backwardParams implements paramGrader: Backward's dW and db, no dx.
func (d *Dense) backwardParams(dout *tensor.Matrix) { d.backward(dout, false) }

// backward is Backward, with dx computed only when wantDx is set; dW and db
// never read it.
func (d *Dense) backward(dout *tensor.Matrix, wantDx bool) *tensor.Matrix {
	if d.x == nil {
		panic("nn: Dense.Backward before training Forward")
	}
	x := d.x
	idx := d.scratch(max(x.Rows, d.OutDim))
	var dx *tensor.Matrix
	if wantDx {
		dx = tensor.GetMatrix(x.Rows, d.InDim)
		tensor.Fill(dx.Data, 0)
		for i := 0; i < x.Rows; i++ {
			g := dout.Row(i)
			tensor.AxpyRows(dx.Row(i), d.w, g, 1, idx[:nonZero(idx, g, 1)])
		}
	}
	for j := 0; j < d.OutDim && x.Rows > 0; j++ {
		g := dout.Data[j:] // column j: one entry every OutDim
		nz := idx[:nonZero(idx, g, d.OutDim)]
		for _, i := range nz {
			d.db[j] += g[int(i)*d.OutDim]
		}
		tensor.AxpyRows(d.dw.Row(j), x, g, d.OutDim, nz)
	}
	d.x = nil
	return dx
}

// Params returns the weight and bias tensors.
func (d *Dense) Params() []Param { return paramsOf(d.slots()) }

func (d *Dense) slots() []slot {
	return []slot{{"dense.w", &d.w.Data, &d.dw.Data}, {"dense.b", &d.b, &d.db}}
}

var _ Layer = (*Dense)(nil)
