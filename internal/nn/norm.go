package nn

import (
	"fmt"
	"math"
	"slices"

	"sapspsgd/internal/tensor"
)

// BatchNorm2D normalizes each channel over the batch and spatial positions
// (the standard spatial batch norm of ResNet). Running statistics accumulate
// with exponential decay for inference mode.
//
// The running mean/variance are internal statistics, not trained parameters,
// so they are intentionally NOT exposed via Params(): workers exchange only
// the learned γ/β (plus conv/dense weights), matching how the flat parameter
// vector is defined in the paper's algorithms.
type BatchNorm2D struct {
	In       Shape
	Eps      float64
	Momentum float64 // running-stat decay, e.g. 0.9

	gamma, beta   []float64
	dgamma, dbeta []float64

	runMean, runVar []float64

	// Backward caches.
	xhat   *tensor.Matrix
	invStd []float64
	rows   int
}

// NewBatchNorm2D returns a batch norm layer with γ=1, β=0.
func NewBatchNorm2D(in Shape) *BatchNorm2D {
	b := (&BatchNorm2D{In: in, Eps: 1e-5, Momentum: 0.9}).over(nil)
	b.runMean, b.runVar = make([]float64, in.C), make([]float64, in.C)
	for i := range b.gamma {
		b.gamma[i] = 1
		b.runVar[i] = 1
	}
	return b
}

// over returns a batch norm with b's geometry, settings and a copy of its
// running statistics, no backward caches, whose γ and β are a's next words
// as they stand.
func (b *BatchNorm2D) over(a *arena) *BatchNorm2D {
	n := &BatchNorm2D{
		In:       b.In,
		Eps:      b.Eps,
		Momentum: b.Momentum,
		runMean:  slices.Clone(b.runMean),
		runVar:   slices.Clone(b.runVar),
	}
	n.gamma, n.dgamma = a.take(b.In.C)
	n.beta, n.dbeta = a.take(b.In.C)
	return n
}

func (b *BatchNorm2D) clone(a *arena) Layer { return b.over(a) }

// Forward normalizes per channel; training mode uses batch statistics and
// updates running statistics.
func (b *BatchNorm2D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != b.In.Dim() {
		panic(fmt.Sprintf("nn: BatchNorm2D input %d, want %d", x.Cols, b.In.Dim()))
	}
	hw := b.In.H * b.In.W
	out := tensor.NewMatrix(x.Rows, x.Cols)

	if !train {
		for i := 0; i < x.Rows; i++ {
			in := x.Row(i)
			o := out.Row(i)
			for c := 0; c < b.In.C; c++ {
				inv := 1 / math.Sqrt(b.runVar[c]+b.Eps)
				g, bt, mu := b.gamma[c], b.beta[c], b.runMean[c]
				for j := c * hw; j < (c+1)*hw; j++ {
					o[j] = float64(g*(in[j]-mu)*inv) + bt
				}
			}
		}
		return out
	}

	n := float64(x.Rows * hw)
	b.rows = x.Rows
	b.xhat = tensor.NewMatrix(x.Rows, x.Cols)
	if len(b.invStd) != b.In.C {
		b.invStd = make([]float64, b.In.C)
	}
	for c := 0; c < b.In.C; c++ {
		mean := 0.0
		for i := 0; i < x.Rows; i++ {
			in := x.Row(i)
			for j := c * hw; j < (c+1)*hw; j++ {
				mean += in[j]
			}
		}
		mean /= n
		variance := 0.0
		for i := 0; i < x.Rows; i++ {
			in := x.Row(i)
			for j := c * hw; j < (c+1)*hw; j++ {
				d := in[j] - mean
				variance += float64(d * d)
			}
		}
		variance /= n
		inv := 1 / math.Sqrt(variance+b.Eps)
		b.invStd[c] = inv
		g, bt := b.gamma[c], b.beta[c]
		for i := 0; i < x.Rows; i++ {
			in := x.Row(i)
			xh := b.xhat.Row(i)
			o := out.Row(i)
			for j := c * hw; j < (c+1)*hw; j++ {
				h := (in[j] - mean) * inv
				xh[j] = h
				o[j] = float64(g*h) + bt
			}
		}
		b.runMean[c] = float64(b.Momentum*b.runMean[c]) + float64((1-b.Momentum)*mean)
		b.runVar[c] = float64(b.Momentum*b.runVar[c]) + float64((1-b.Momentum)*variance)
	}
	return out
}

// Backward implements the standard batch-norm gradient.
func (b *BatchNorm2D) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if b.xhat == nil {
		panic("nn: BatchNorm2D.Backward before training Forward")
	}
	hw := b.In.H * b.In.W
	n := float64(b.rows * hw)
	dx := tensor.NewMatrix(b.rows, b.In.Dim())
	for c := 0; c < b.In.C; c++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < b.rows; i++ {
			dr := dout.Row(i)
			xh := b.xhat.Row(i)
			for j := c * hw; j < (c+1)*hw; j++ {
				sumDy += dr[j]
				sumDyXhat += float64(dr[j] * xh[j])
			}
		}
		b.dbeta[c] += sumDy
		b.dgamma[c] += sumDyXhat
		coef := b.gamma[c] * b.invStd[c]
		for i := 0; i < b.rows; i++ {
			dr := dout.Row(i)
			xh := b.xhat.Row(i)
			dxr := dx.Row(i)
			for j := c * hw; j < (c+1)*hw; j++ {
				dxr[j] = coef * (dr[j] - sumDy/n - xh[j]*sumDyXhat/n)
			}
		}
	}
	b.xhat = nil
	return dx
}

// Params returns γ and β.
func (b *BatchNorm2D) Params() []Param { return paramsOf(b.slots()) }

func (b *BatchNorm2D) slots() []slot {
	return []slot{{"bn.gamma", &b.gamma, &b.dgamma}, {"bn.beta", &b.beta, &b.dbeta}}
}

// RunningState implements Stateful: running mean followed by running
// variance.
func (b *BatchNorm2D) RunningState() []float64 {
	out := make([]float64, 0, 2*b.In.C)
	out = append(out, b.runMean...)
	return append(out, b.runVar...)
}

// SetRunningState implements Stateful.
func (b *BatchNorm2D) SetRunningState(s []float64) {
	if len(s) != 2*b.In.C {
		panic(fmt.Sprintf("nn: BatchNorm2D state length %d, want %d", len(s), 2*b.In.C))
	}
	copy(b.runMean, s[:b.In.C])
	copy(b.runVar, s[b.In.C:])
}

var _ Layer = (*BatchNorm2D)(nil)
