package nn

import (
	"math"

	"sapspsgd/internal/tensor"
)

// gate returns v when keep is set and +0 otherwise, as a conditional move on
// the bit pattern: the sign of a pre-activation is a coin flip no branch
// predictor learns.
func gate(v float64, keep bool) float64 {
	bits := math.Float64bits(v)
	if !keep {
		bits = 0
	}
	return math.Float64frombits(bits)
}

// ReLU is the rectified linear activation, applied element-wise.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward clamps negatives to zero, caching the activation mask when
// training. The result comes from the tensor pool, whose buffers arrive
// dirty: every element is written, zeros included.
func (r *ReLU) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	out := tensor.GetMatrix(x.Rows, x.Cols)
	if train && len(r.mask) != len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	for i, v := range x.Data {
		pos := v > 0
		out.Data[i] = gate(v, pos)
		if train {
			r.mask[i] = pos
		}
	}
	return out
}

// Backward gates the upstream gradient by the cached mask.
func (r *ReLU) Backward(dout *tensor.Matrix) *tensor.Matrix {
	dx := tensor.GetMatrix(dout.Rows, dout.Cols)
	for i, v := range dout.Data {
		dx.Data[i] = gate(v, r.mask[i])
	}
	return dx
}

// Params returns nothing: ReLU is stateless.
func (r *ReLU) Params() []Param { return nil }

func (r *ReLU) clone(*arena) Layer { return NewReLU() }

var _ Layer = (*ReLU)(nil)
