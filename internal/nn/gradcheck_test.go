package nn

import (
	"math"
	"testing"

	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// lossOf runs a training-mode forward pass and returns the batch loss.
func lossOf(m *Model, x *tensor.Matrix, ys []int) float64 {
	logits := m.Forward(x, true)
	loss, _ := SoftmaxCrossEntropy(logits, ys)
	return loss
}

// checkGradients compares analytic gradients against central finite
// differences at nChecks randomly chosen parameter coordinates.
func checkGradients(t *testing.T, m *Model, x *tensor.Matrix, ys []int, nChecks int, tol float64) {
	t.Helper()
	m.ZeroGrads()
	logits := m.Forward(x, true)
	_, dl := SoftmaxCrossEntropy(logits, ys)
	m.Backward(dl)
	_, grads := m.Flat()
	analytic := append([]float64(nil), grads...)
	params := m.FlatParams(nil)

	r := rng.New(12345)
	const eps = 1e-5
	for c := 0; c < nChecks; c++ {
		i := r.Intn(len(params))
		orig := params[i]
		params[i] = orig + eps
		m.SetFlatParams(params)
		lp := lossOf(m, x, ys)
		params[i] = orig - eps
		m.SetFlatParams(params)
		lm := lossOf(m, x, ys)
		params[i] = orig
		m.SetFlatParams(params)
		numeric := (lp - lm) / (2 * eps)
		scale := math.Max(1, math.Max(math.Abs(analytic[i]), math.Abs(numeric)))
		if math.Abs(analytic[i]-numeric)/scale > tol {
			t.Fatalf("param %d: analytic %v vs numeric %v", i, analytic[i], numeric)
		}
	}
}

func randomBatch(in Shape, classes, batch int, seed uint64) (*tensor.Matrix, []int) {
	r := rng.New(seed)
	x := tensor.NewMatrix(batch, in.Dim())
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	ys := make([]int, batch)
	for i := range ys {
		ys[i] = r.Intn(classes)
	}
	return x, ys
}

func TestGradCheckMLP(t *testing.T) {
	m := NewMLP(12, []int{9, 7}, 4, 1)
	x, ys := randomBatch(Shape{C: 1, H: 1, W: 12}, 4, 5, 2)
	checkGradients(t, m, x, ys, 60, 1e-4)
}

func TestGradCheckConvNet(t *testing.T) {
	in := Shape{C: 2, H: 8, W: 8}
	r := rng.New(3)
	c1 := NewConv2D(in, 4, 3, 1, 1, r)
	p1 := NewMaxPool2D(c1.OutShape, 2)
	c2 := NewConv2D(p1.OutShape, 6, 3, 2, 1, r)
	fc := NewDense(c2.OutShape.Dim(), 3, r)
	m := NewModel("gradcheck-conv", in, 3, c1, NewReLU(), p1, c2, NewReLU(), fc)
	x, ys := randomBatch(in, 3, 4, 7)
	checkGradients(t, m, x, ys, 60, 1e-4)
}

func TestGradCheckBatchNorm(t *testing.T) {
	in := Shape{C: 3, H: 4, W: 4}
	r := rng.New(5)
	c1 := NewConv2D(in, 4, 3, 1, 1, r)
	bn := NewBatchNorm2D(c1.OutShape)
	fc := NewDense(c1.OutShape.Dim(), 3, r)
	m := NewModel("gradcheck-bn", in, 3, c1, bn, NewReLU(), fc)
	x, ys := randomBatch(in, 3, 6, 11)
	checkGradients(t, m, x, ys, 60, 1e-4)
}

func TestGradCheckResidualIdentity(t *testing.T) {
	in := Shape{C: 4, H: 6, W: 6}
	r := rng.New(7)
	blk := NewResidual(in, 4, 1, r) // identity shortcut
	fc := NewDense(blk.OutShape.Dim(), 3, r)
	m := NewModel("gradcheck-res-id", in, 3, blk, fc)
	x, ys := randomBatch(in, 3, 4, 13)
	checkGradients(t, m, x, ys, 50, 1e-4)
}

func TestGradCheckResidualProjection(t *testing.T) {
	in := Shape{C: 4, H: 6, W: 6}
	r := rng.New(9)
	blk := NewResidual(in, 8, 2, r) // 1×1 stride-2 projection shortcut
	fc := NewDense(blk.OutShape.Dim(), 3, r)
	m := NewModel("gradcheck-res-proj", in, 3, blk, fc)
	x, ys := randomBatch(in, 3, 4, 17)
	checkGradients(t, m, x, ys, 50, 1e-4)
}

func TestGradCheckGlobalAvgPool(t *testing.T) {
	in := Shape{C: 5, H: 4, W: 4}
	r := rng.New(11)
	gap := NewGlobalAvgPool(in)
	fc := NewDense(5, 3, r)
	m := NewModel("gradcheck-gap", in, 3, gap, fc)
	x, ys := randomBatch(in, 3, 5, 19)
	checkGradients(t, m, x, ys, 40, 1e-4)
}

func TestGradCheckTinyResNet(t *testing.T) {
	in := Shape{C: 1, H: 8, W: 8}
	m := NewResNet(in, 3, 1, 0.25, 21) // ResNet-8 at quarter width
	x, ys := randomBatch(in, 3, 4, 23)
	checkGradients(t, m, x, ys, 40, 1e-4)
}
