package nn

import (
	"fmt"
	"math"
	"sync"

	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// Dense is a fully connected layer: y = x·Wᵀ + b, or y = max(x·Wᵀ + b, +0)
// when NewModel has fused the ReLU that follows it into the layer.
type Dense struct {
	InDim, OutDim int
	w             *tensor.Matrix // OutDim × InDim
	b             []float64
	dw            *tensor.Matrix
	db            []float64
	relu          bool           // a ReLU is fused in (NewModel sets it)
	x             *tensor.Matrix // cached input
	y             *tensor.Matrix // cached output of a relu layer: y[i][j] > 0 ⇔ unit j fired on row i
}

// backwardScratch holds Backward's index lists. They live only for one
// Backward, so a fleet's models share them: one buffer per goroutine that
// is inside a Backward, not one per layer.
var backwardScratch = sync.Pool{New: func() any { return new([]int32) }}

// NewDense returns a dense layer with He-initialized weights.
func NewDense(in, out int, r *rng.Source) *Dense { return newDense(in, out, r, nil) }

// newDense is NewDense with its tensors taken from a.
func newDense(in, out int, r *rng.Source, a *arena) *Dense {
	if in < 1 || out < 1 {
		panic(fmt.Sprintf("nn: Dense(%d,%d)", in, out))
	}
	d := (&Dense{InDim: in, OutDim: out}).over(a)
	std := math.Sqrt(2 / float64(in))
	for i := range d.w.Data {
		d.w.Data[i] = std * r.NormFloat64()
	}
	return d
}

// over returns a layer of d's dimensions, unfused, whose weights and bias
// are a's next words as they stand.
func (d *Dense) over(a *arena) *Dense {
	in, out := d.InDim, d.OutDim
	w, dw := a.take(out * in)
	b, db := a.take(out)
	return &Dense{
		InDim:  in,
		OutDim: out,
		w:      tensor.MatrixFrom(out, in, w),
		b:      b,
		dw:     tensor.MatrixFrom(out, in, dw),
		db:     db,
	}
}

func (d *Dense) clone(a *arena) Layer { return d.over(a) }

// Forward computes the affine map for the batch, and the ReLU when one is
// fused: tensor.MulTransposedInto reads each W row straight from the
// model's flat vector and gives out[i][j] the chain tensor.Dot(w[j], x[i])
// — +0, then x[i][k]·w[j][k] for every k, ascending, zeros included — plus
// b[j], then the ReLU's gate, in the kernel's epilogue, with one vector lane
// per batch row (DESIGN §8 "Compute kernels"). The result comes from the
// tensor pool and belongs to the caller; a training Forward of a relu layer
// reads it again in Backward, so the caller keeps it until then, as a Model
// does with every activation but its logits.
func (d *Dense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != d.InDim {
		panic(fmt.Sprintf("nn: Dense input %d, want %d", x.Cols, d.InDim))
	}
	out := tensor.GetMatrix(x.Rows, d.OutDim)
	tensor.MulTransposedInto(out, x, d.w, d.b, d.relu)
	if train {
		d.x = x
		if d.relu {
			d.y = out
		}
	}
	return out
}

// Backward writes dW and db and returns dx (from the tensor pool, the
// caller's). A relu layer passes a unit's gradient back only where the unit
// fired (its output > 0), a plain layer everywhere: a gradient that does not
// pass is +0, as a separate ReLU's Backward made it. Each dx row is +0 plus
// g·w[j] over its passed, non-zero gradients in ascending j; each dw row is
// +0 plus g·x[i] over its passed, non-zero gradients in ascending i; each db
// entry is +0 plus its passed gradients in ascending i. A zero gradient is
// skipped, not multiplied (0·Inf is NaN); adding one, as db does, changes no
// bit. Nothing is read from dW, db or dx before it is written, so
// Model.ZeroGrads clears none of them.
func (d *Dense) Backward(dout *tensor.Matrix) *tensor.Matrix { return d.backward(dout, true) }

// backwardParams implements paramGrader: Backward's dW and db, no dx.
func (d *Dense) backwardParams(dout *tensor.Matrix) { d.backward(dout, false) }

// backward is Backward, with dx computed only when wantDx is set; dW and db
// never read it. tensor.MaskedColumns writes db and lists each unit's
// passed rows, which its dW row is summed over; read in unit order, the
// same lists give each row's passed units, which its dx row is summed over.
func (d *Dense) backward(dout *tensor.Matrix, wantDx bool) *tensor.Matrix {
	if d.x == nil {
		panic("nn: Dense.Backward before training Forward")
	}
	x, n := d.x, d.OutDim
	rows := x.Rows
	buf := backwardScratch.Get().(*[]int32)
	if k := 2*n*rows + n + rows; len(*buf) < k {
		*buf = make([]int32, k)
	}
	lists, units := (*buf)[:n*rows], (*buf)[n*rows:2*n*rows]
	ends, counts := (*buf)[2*n*rows:2*n*rows+n], (*buf)[2*n*rows+n:2*n*rows+n+rows]
	tensor.MaskedColumns(d.db, lists, ends, dout, d.y) // d.y is nil unless relu: every unit passes
	for j := 0; j < n; j++ {
		g := dout.Data[min(j, len(dout.Data)):] // column j, one entry every n; empty with no rows
		tensor.AxpyRowsInto(d.dw.Row(j), x, g, n, lists[j*rows:ends[j]])
	}
	var dx *tensor.Matrix
	if wantDx {
		dx = tensor.GetMatrix(rows, d.InDim)
		clear(counts)
		for j := 0; j < n; j++ {
			for _, i := range lists[j*rows : ends[j]] {
				units[int(i)*n+int(counts[i])] = int32(j)
				counts[i]++
			}
		}
		for i := 0; i < rows; i++ {
			tensor.AxpyRowsInto(dx.Row(i), d.w, dout.Row(i), 1, units[i*n:i*n+int(counts[i])])
		}
	}
	backwardScratch.Put(buf)
	d.x, d.y = nil, nil
	return dx
}

// Params returns the weight and bias tensors.
func (d *Dense) Params() []Param { return paramsOf(d.slots()) }

func (d *Dense) slots() []slot {
	return []slot{{"dense.w", &d.w.Data, &d.dw.Data}, {"dense.b", &d.b, &d.db}}
}

var _ Layer = (*Dense)(nil)
