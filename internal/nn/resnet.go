package nn

import (
	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// Residual is a pre-built basic ResNet block:
//
//	y = ReLU( BN2(Conv2(ReLU(BN1(Conv1(x))))) + shortcut(x) )
//
// where shortcut is the identity when geometry is preserved and a strided
// 1×1 convolution + BN otherwise (ResNet option B).
type Residual struct {
	In, OutShape Shape

	conv1 *Conv2D
	bn1   *BatchNorm2D
	relu1 *ReLU
	conv2 *Conv2D
	bn2   *BatchNorm2D

	projConv *Conv2D // nil for identity shortcut
	projBN   *BatchNorm2D

	// Backward caches.
	sumMask []bool // post-add ReLU mask
	xCache  *tensor.Matrix
}

// NewResidual builds a basic block with outC output channels and the given
// stride on the first convolution.
func NewResidual(in Shape, outC, stride int, r *rng.Source) *Residual {
	b := &Residual{In: in}
	b.conv1 = NewConv2D(in, outC, 3, stride, 1, r)
	b.bn1 = NewBatchNorm2D(b.conv1.OutShape)
	b.relu1 = NewReLU()
	b.conv2 = NewConv2D(b.conv1.OutShape, outC, 3, 1, 1, r)
	b.bn2 = NewBatchNorm2D(b.conv2.OutShape)
	b.OutShape = b.conv2.OutShape
	if stride != 1 || in.C != outC {
		b.projConv = NewConv2D(in, outC, 1, stride, 0, r)
		b.projBN = NewBatchNorm2D(b.projConv.OutShape)
	}
	return b
}

// Forward runs both branches and the post-addition ReLU.
func (b *Residual) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if train {
		b.xCache = x
	}
	main := b.conv1.Forward(x, train)
	main = b.bn1.Forward(main, train)
	main = b.relu1.Forward(main, train)
	main = b.conv2.Forward(main, train)
	main = b.bn2.Forward(main, train)

	short := x
	if b.projConv != nil {
		short = b.projConv.Forward(x, train)
		short = b.projBN.Forward(short, train)
	}

	out := tensor.NewMatrix(main.Rows, main.Cols)
	if train {
		if len(b.sumMask) != len(out.Data) {
			b.sumMask = make([]bool, len(out.Data))
		}
		for i := range out.Data {
			s := main.Data[i] + short.Data[i]
			if s > 0 {
				out.Data[i] = s
				b.sumMask[i] = true
			} else {
				b.sumMask[i] = false
			}
		}
		return out
	}
	for i := range out.Data {
		if s := main.Data[i] + short.Data[i]; s > 0 {
			out.Data[i] = s
		}
	}
	return out
}

// Backward splits the gradient across both branches and sums the input
// gradients.
func (b *Residual) Backward(dout *tensor.Matrix) *tensor.Matrix {
	dsum := tensor.NewMatrix(dout.Rows, dout.Cols)
	for i, v := range dout.Data {
		if b.sumMask[i] {
			dsum.Data[i] = v
		}
	}
	// Main branch.
	d := b.bn2.Backward(dsum)
	d = b.conv2.Backward(d)
	d = b.relu1.Backward(d)
	d = b.bn1.Backward(d)
	dMain := b.conv1.Backward(d)
	// Shortcut branch.
	var dShort *tensor.Matrix
	if b.projConv != nil {
		ds := b.projBN.Backward(dsum)
		dShort = b.projConv.Backward(ds)
	} else {
		dShort = dsum
	}
	dx := tensor.NewMatrix(dMain.Rows, dMain.Cols)
	tensor.Add(dx.Data, dMain.Data, dShort.Data)
	b.xCache = nil
	return dx
}

// Params concatenates the parameters of all constituent layers.
func (b *Residual) Params() []Param { return paramsOf(b.slots()) }

// clone takes the branches' parameters from a in slots order.
func (b *Residual) clone(a *arena) Layer {
	c := &Residual{In: b.In, OutShape: b.OutShape, relu1: NewReLU()}
	c.conv1, c.bn1 = b.conv1.over(a), b.bn1.over(a)
	c.conv2, c.bn2 = b.conv2.over(a), b.bn2.over(a)
	if b.projConv != nil {
		c.projConv, c.projBN = b.projConv.over(a), b.projBN.over(a)
	}
	return c
}

func (b *Residual) slots() []slot {
	out := append(b.conv1.slots(), b.bn1.slots()...)
	out = append(out, b.conv2.slots()...)
	out = append(out, b.bn2.slots()...)
	if b.projConv != nil {
		out = append(out, b.projConv.slots()...)
		out = append(out, b.projBN.slots()...)
	}
	return out
}

var _ Layer = (*Residual)(nil)
