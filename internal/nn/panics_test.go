package nn

import (
	"testing"

	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

func expectPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestLayerMisusePanics(t *testing.T) {
	r := rng.New(1)
	in := Shape{C: 1, H: 8, W: 8}

	expectPanic(t, "Dense wrong input width", func() {
		d := NewDense(4, 2, r)
		d.Forward(tensor.NewMatrix(1, 5), true)
	})
	expectPanic(t, "Dense backward before forward", func() {
		d := NewDense(4, 2, r)
		d.Backward(tensor.NewMatrix(1, 2))
	})
	expectPanic(t, "Conv2D wrong input", func() {
		c := NewConv2D(in, 2, 3, 1, 1, r)
		c.Forward(tensor.NewMatrix(1, 7), true)
	})
	expectPanic(t, "Conv2D backward before forward", func() {
		c := NewConv2D(in, 2, 3, 1, 1, r)
		c.Backward(tensor.NewMatrix(1, c.OutShape.Dim()))
	})
	expectPanic(t, "BatchNorm backward before forward", func() {
		b := NewBatchNorm2D(in)
		b.Backward(tensor.NewMatrix(1, in.Dim()))
	})
	expectPanic(t, "MaxPool indivisible", func() {
		NewMaxPool2D(Shape{C: 1, H: 7, W: 8}, 2)
	})
	expectPanic(t, "Conv2D zero-size output", func() {
		NewConv2D(Shape{C: 1, H: 2, W: 2}, 1, 5, 1, 0, r)
	})
	expectPanic(t, "Dense invalid dims", func() {
		NewDense(0, 3, r)
	})
	expectPanic(t, "ResNet zero blocks", func() {
		NewResNet(in, 3, 0, 1, 1)
	})
	expectPanic(t, "empty batch", func() {
		BatchMatrix(nil)
	})
	expectPanic(t, "label out of range", func() {
		SoftmaxCrossEntropy(tensor.NewMatrix(1, 3), []int{5})
	})
	expectPanic(t, "logits/labels mismatch", func() {
		SoftmaxCrossEntropy(tensor.NewMatrix(2, 3), []int{0})
	})
}

func TestModelParamRegistryConsistency(t *testing.T) {
	m := NewCIFARCNN(Shape{C: 3, H: 8, W: 8}, 4, 0.25, 3)
	total := 0
	for _, p := range m.Params() {
		if len(p.Data) != len(p.Grad) {
			t.Fatalf("%s: data %d grad %d", p.Name, len(p.Data), len(p.Grad))
		}
		if len(p.Data) == 0 {
			t.Fatalf("%s: empty parameter", p.Name)
		}
		total += len(p.Data)
	}
	if total != m.ParamCount() {
		t.Fatalf("registry total %d != ParamCount %d", total, m.ParamCount())
	}
}
