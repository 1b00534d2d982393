package nn

import (
	"fmt"
	"math"

	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// Conv2D is a 2-D convolution over channel-major images, implemented as an
// im2col + matrix-product pair (forward) and its adjoint (backward).
type Conv2D struct {
	In         Shape
	OutC       int
	K, Stride  int
	Pad        int
	OutShape   Shape
	w          *tensor.Matrix // OutC × (InC*K*K)
	b          []float64
	dw         *tensor.Matrix
	db         []float64
	cols       []*tensor.Matrix // cached per-sample im2col matrices
	colScratch *tensor.Matrix   // reused in inference mode
}

// NewConv2D returns a He-initialized convolution layer.
func NewConv2D(in Shape, outC, k, stride, pad int, r *rng.Source) *Conv2D {
	outH := tensor.ConvOutSize(in.H, k, stride, pad)
	outW := tensor.ConvOutSize(in.W, k, stride, pad)
	if outH < 1 || outW < 1 {
		panic(fmt.Sprintf("nn: Conv2D output %dx%d invalid for in=%v k=%d s=%d p=%d", outH, outW, in, k, stride, pad))
	}
	c := (&Conv2D{In: in, OutC: outC, K: k, Stride: stride, Pad: pad, OutShape: Shape{C: outC, H: outH, W: outW}}).over(nil)
	std := math.Sqrt(2 / float64(in.C*k*k)) // the fan-in
	for i := range c.w.Data {
		c.w.Data[i] = std * r.NormFloat64()
	}
	return c
}

// over returns a convolution of c's geometry, with no cached columns, whose
// kernel and bias are a's next words as they stand.
func (c *Conv2D) over(a *arena) *Conv2D {
	fanIn := c.In.C * c.K * c.K
	w, dw := a.take(c.OutC * fanIn)
	b, db := a.take(c.OutC)
	return &Conv2D{
		In:       c.In,
		OutC:     c.OutC,
		K:        c.K,
		Stride:   c.Stride,
		Pad:      c.Pad,
		OutShape: c.OutShape,
		w:        tensor.MatrixFrom(c.OutC, fanIn, w),
		b:        b,
		dw:       tensor.MatrixFrom(c.OutC, fanIn, dw),
		db:       db,
	}
}

func (c *Conv2D) clone(a *arena) Layer { return c.over(a) }

// Forward convolves the batch.
func (c *Conv2D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != c.In.Dim() {
		panic(fmt.Sprintf("nn: Conv2D input %d, want %d (%v)", x.Cols, c.In.Dim(), c.In))
	}
	outHW := c.OutShape.H * c.OutShape.W
	out := tensor.NewMatrix(x.Rows, c.OutShape.Dim())
	if train {
		c.cols = make([]*tensor.Matrix, x.Rows)
	}
	prod := tensor.NewMatrix(c.OutC, outHW)
	for i := 0; i < x.Rows; i++ {
		var col *tensor.Matrix
		if train {
			col = tensor.NewMatrix(c.In.C*c.K*c.K, outHW)
			c.cols[i] = col
		} else {
			if c.colScratch == nil {
				c.colScratch = tensor.NewMatrix(c.In.C*c.K*c.K, outHW)
			}
			col = c.colScratch
		}
		tensor.Im2Col(x.Row(i), c.In.C, c.In.H, c.In.W, c.K, c.K, c.Stride, c.Pad, col)
		tensor.MatMulInto(prod, c.w, col)
		o := out.Row(i)
		copy(o, prod.Data)
		for oc := 0; oc < c.OutC; oc++ {
			bias := c.b[oc]
			seg := o[oc*outHW : (oc+1)*outHW]
			for j := range seg {
				seg[j] += bias
			}
		}
	}
	return out
}

// Backward accumulates dW, db and returns dx via the im2col adjoint.
func (c *Conv2D) Backward(dout *tensor.Matrix) *tensor.Matrix { return c.backward(dout, true) }

// backwardParams implements paramGrader: Backward's dW and db, without Wᵀ,
// the dcol products or col2im.
func (c *Conv2D) backwardParams(dout *tensor.Matrix) { c.backward(dout, false) }

// backward is Backward, with dx computed only when wantDx is set; dW and db
// never read it.
func (c *Conv2D) backward(dout *tensor.Matrix, wantDx bool) *tensor.Matrix {
	if c.cols == nil {
		panic("nn: Conv2D.Backward before training Forward")
	}
	outHW := c.OutShape.H * c.OutShape.W
	var dx, dcol, wT *tensor.Matrix
	if wantDx {
		dx = tensor.NewMatrix(len(c.cols), c.In.Dim())
		dcol = tensor.NewMatrix(c.In.C*c.K*c.K, outHW)
		wT = tensor.GetMatrix(c.w.Cols, c.w.Rows)
		tensor.TransposeInto(wT, c.w)
		defer tensor.PutMatrix(wT)
	}
	for i := 0; i < dout.Rows; i++ {
		g := tensor.MatrixFrom(c.OutC, outHW, dout.Row(i))
		col := c.cols[i]
		// dW += g · colᵀ, expressed as row-row dot products so both operands
		// stream through memory contiguously.
		for oc := 0; oc < c.OutC; oc++ {
			gRow := g.Row(oc)
			c.db[oc] += tensor.Sum(gRow)
			dwRow := c.dw.Row(oc)
			for r := 0; r < col.Rows; r++ {
				dwRow[r] += tensor.Dot(gRow, col.Row(r))
			}
		}
		if wantDx {
			// dcol = Wᵀ · g ; dx = col2im(dcol).
			tensor.MatMulInto(dcol, wT, g)
			tensor.Col2Im(dcol, c.In.C, c.In.H, c.In.W, c.K, c.K, c.Stride, c.Pad, dx.Row(i))
		}
	}
	c.cols = nil
	return dx
}

// Params returns the kernel and bias tensors.
func (c *Conv2D) Params() []Param { return paramsOf(c.slots()) }

func (c *Conv2D) slots() []slot {
	return []slot{{"conv.w", &c.w.Data, &c.dw.Data}, {"conv.b", &c.b, &c.db}}
}

var _ Layer = (*Conv2D)(nil)
