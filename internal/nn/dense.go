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
	nz            []int32        // Backward's scratch: positions of the non-zero gradients
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

// Forward computes the affine map for the batch. Four output units share one
// ascending-k pass over an input row: four independent add chains, each the
// chain tensor.Dot would run for that unit (DESIGN §8 "Compute kernels"). The
// result comes from the tensor pool and belongs to the caller.
func (d *Dense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != d.InDim {
		panic(fmt.Sprintf("nn: Dense input %d, want %d", x.Cols, d.InDim))
	}
	if train {
		d.x = x
	}
	out := tensor.GetMatrix(x.Rows, d.OutDim)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		o := out.Row(i)
		j := 0
		for ; j+4 <= d.OutDim; j += 4 {
			w0, w1 := d.w.Row(j)[:len(row)], d.w.Row(j + 1)[:len(row)]
			w2, w3 := d.w.Row(j + 2)[:len(row)], d.w.Row(j + 3)[:len(row)]
			var s0, s1, s2, s3 float64
			for k, xk := range row {
				s0 += w0[k] * xk
				s1 += w1[k] * xk
				s2 += w2[k] * xk
				s3 += w3[k] * xk
			}
			o[j], o[j+1] = s0+d.b[j], s1+d.b[j+1]
			o[j+2], o[j+3] = s2+d.b[j+2], s3+d.b[j+3]
		}
		for ; j < d.OutDim; j++ {
			o[j] = tensor.Dot(d.w.Row(j), row) + d.b[j]
		}
	}
	return out
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

// axpyRows computes dst += g[p*stride]·src.Row(p) for p in idx, in list
// order, four rows per pass over dst: every dst[k] receives the additions one
// tensor.Axpy per row would give it, in the same order, with a quarter of the
// loads and stores.
func axpyRows(dst []float64, src *tensor.Matrix, g []float64, stride int, idx []int32) {
	for ; len(idx) >= 4; idx = idx[4:] {
		p0, p1, p2, p3 := int(idx[0]), int(idx[1]), int(idx[2]), int(idx[3])
		g0, g1, g2, g3 := g[p0*stride], g[p1*stride], g[p2*stride], g[p3*stride]
		r0, r1 := src.Row(p0)[:len(dst)], src.Row(p1)[:len(dst)]
		r2, r3 := src.Row(p2)[:len(dst)], src.Row(p3)[:len(dst)]
		for k, v := range dst {
			v += g0 * r0[k]
			v += g1 * r1[k]
			v += g2 * r2[k]
			v += g3 * r3[k]
			dst[k] = v
		}
	}
	for _, p := range idx {
		tensor.Axpy(g[int(p)*stride], src.Row(int(p)), dst)
	}
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
	if need := max(x.Rows, d.OutDim); len(d.nz) < need {
		d.nz = make([]int32, need)
	}
	var dx *tensor.Matrix
	if wantDx {
		dx = tensor.GetMatrix(x.Rows, d.InDim)
		tensor.Fill(dx.Data, 0)
		for i := 0; i < x.Rows; i++ {
			g := dout.Row(i)
			axpyRows(dx.Row(i), d.w, g, 1, d.nz[:nonZero(d.nz, g, 1)])
		}
	}
	for j := 0; j < d.OutDim && x.Rows > 0; j++ {
		g := dout.Data[j:] // column j: one entry every OutDim
		nz := d.nz[:nonZero(d.nz, g, d.OutDim)]
		for _, i := range nz {
			d.db[j] += g[int(i)*d.OutDim]
		}
		axpyRows(d.dw.Row(j), x, g, d.OutDim, nz)
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
