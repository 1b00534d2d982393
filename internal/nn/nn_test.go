package nn

import (
	"math"
	"testing"

	"sapspsgd/internal/dataset"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

func TestParamCounts(t *testing.T) {
	// MNIST-CNN at full width: conv(1→32,5) + conv(32→64,5) + fc(3136→512)
	// + fc(512→10) = 832 + 51264 + 1606144 + 5130.
	m := NewMNISTCNN(Shape{C: 1, H: 28, W: 28}, 10, 1, 1)
	if got, want := m.ParamCount(), 832+51264+1606144+5130; got != want {
		t.Fatalf("MNIST-CNN params = %d, want %d", got, want)
	}
	// ResNet-20 is ~0.27M parameters (the paper reports 269,722).
	rn := NewResNet(Shape{C: 3, H: 32, W: 32}, 10, 3, 1, 1)
	if rn.ParamCount() < 250000 || rn.ParamCount() > 300000 {
		t.Fatalf("ResNet-20 params = %d, want ~270k", rn.ParamCount())
	}
	// The CIFAR10-CNN at full width is a >1M-parameter model.
	if c := NewCIFARCNN(Shape{C: 3, H: 32, W: 32}, 10, 1, 1); c.ParamCount() < 1e6 {
		t.Fatalf("CIFAR-CNN params = %d, want > 1M", c.ParamCount())
	}
}

func TestFlatParamsRoundTrip(t *testing.T) {
	m := NewMLP(10, []int{8}, 3, 2)
	flat := m.FlatParams(nil)
	if len(flat) != m.ParamCount() {
		t.Fatal("length")
	}
	for i := range flat {
		flat[i] = float64(i) * 0.001
	}
	m.SetFlatParams(flat)
	got := m.FlatParams(nil)
	for i := range flat {
		if got[i] != flat[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestSetFlatParamsWrongLenPanics(t *testing.T) {
	m := NewMLP(4, nil, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SetFlatParams(make([]float64, 3))
}

func TestAddFlatToParams(t *testing.T) {
	m := NewMLP(4, nil, 2, 3)
	before := m.FlatParams(nil)
	delta := make([]float64, m.ParamCount())
	for i := range delta {
		delta[i] = 1
	}
	m.AddFlatToParams(-0.5, delta)
	after := m.FlatParams(nil)
	for i := range after {
		if math.Abs(after[i]-(before[i]-0.5)) > 1e-12 {
			t.Fatalf("AddFlatToParams wrong at %d", i)
		}
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	logits := tensor.MatrixFrom(1, 2, []float64{0, 0})
	loss, dl := SoftmaxCrossEntropy(logits, []int{0})
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("loss = %v, want ln2", loss)
	}
	if math.Abs(dl.Row(0)[0]-(-0.5)) > 1e-12 || math.Abs(dl.Row(0)[1]-0.5) > 1e-12 {
		t.Fatalf("dlogits = %v", dl.Data)
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := tensor.MatrixFrom(1, 3, []float64{1000, 999, -1000})
	loss, dl := SoftmaxCrossEntropy(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %v", loss)
	}
	for _, v := range dl.Data {
		if math.IsNaN(v) {
			t.Fatal("NaN gradient")
		}
	}
}

func TestBatchNormNormalizesTraining(t *testing.T) {
	in := Shape{C: 2, H: 2, W: 2}
	bn := NewBatchNorm2D(in)
	r := rng.New(4)
	x := tensor.NewMatrix(16, in.Dim())
	for i := range x.Data {
		x.Data[i] = 3 + 2*r.NormFloat64()
	}
	out := bn.Forward(x, true)
	// Per channel, output should have ~0 mean, ~1 variance.
	hw := 4
	for c := 0; c < 2; c++ {
		var sum, sumSq float64
		n := 0
		for i := 0; i < out.Rows; i++ {
			row := out.Row(i)
			for j := c * hw; j < (c+1)*hw; j++ {
				sum += row[j]
				sumSq += row[j] * row[j]
				n++
			}
		}
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-2 {
			t.Fatalf("channel %d: mean %v var %v", c, mean, variance)
		}
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	in := Shape{C: 1, H: 1, W: 4}
	bn := NewBatchNorm2D(in)
	r := rng.New(8)
	// Train on shifted data so running stats move away from (0,1).
	for it := 0; it < 200; it++ {
		x := tensor.NewMatrix(8, 4)
		for i := range x.Data {
			x.Data[i] = 5 + r.NormFloat64()
		}
		bn.Forward(x, true)
	}
	// Inference on the same distribution should now be roughly normalized.
	x := tensor.NewMatrix(64, 4)
	for i := range x.Data {
		x.Data[i] = 5 + r.NormFloat64()
	}
	out := bn.Forward(x, false)
	mean := tensor.Mean(out.Data)
	if math.Abs(mean) > 0.2 {
		t.Fatalf("inference mean %v, want ~0", mean)
	}
}

func TestMaxPoolForwardExact(t *testing.T) {
	in := Shape{C: 1, H: 4, W: 4}
	p := NewMaxPool2D(in, 2)
	x := tensor.MatrixFrom(1, 16, []float64{
		1, 2, 0, 0,
		3, 4, 0, 9,
		0, 0, 5, 6,
		0, -1, 7, 8,
	})
	out := p.Forward(x, true)
	want := []float64{4, 9, 0, 8}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("maxpool = %v, want %v", out.Data, want)
		}
	}
	// Backward: gradient routes to argmax positions only.
	dout := tensor.MatrixFrom(1, 4, []float64{1, 1, 1, 1})
	dx := p.Backward(dout)
	if dx.Data[5] != 1 || dx.Data[7] != 1 || dx.Data[15] != 1 {
		t.Fatalf("maxpool backward = %v", dx.Data)
	}
	total := tensor.Sum(dx.Data)
	if total != 4 {
		t.Fatalf("gradient mass = %v, want 4", total)
	}
}

func TestReLUTrainEvalAgree(t *testing.T) {
	re := NewReLU()
	x := tensor.MatrixFrom(1, 4, []float64{-1, 2, 0, 3})
	a := re.Forward(x, true)
	b := re.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("train/eval mismatch")
		}
	}
}

func TestModelDeterministicInit(t *testing.T) {
	a := NewCIFARCNN(Shape{C: 3, H: 8, W: 8}, 10, 0.25, 5)
	b := NewCIFARCNN(Shape{C: 3, H: 8, W: 8}, 10, 0.25, 5)
	fa := a.FlatParams(nil)
	fb := b.FlatParams(nil)
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatal("same seed produced different init")
		}
	}
	c := NewCIFARCNN(Shape{C: 3, H: 8, W: 8}, 10, 0.25, 6)
	fc := c.FlatParams(nil)
	same := true
	for i := range fa {
		if fa[i] != fc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical init")
	}
}

func TestTrainingLearnsTinyTask(t *testing.T) {
	tr, va := dataset.TinyTask(400, 4, 31)
	m := NewMLP(tr.Dim(), []int{32}, 4, 7)
	opt := &SGD{LR: 0.1}
	loader := dataset.NewLoader(tr, 32, 3)
	for it := 0; it < 300; it++ {
		xs, ys := loader.Next()
		TrainBatch(m, opt, xs, ys)
	}
	_, acc := EvaluateDataset(m, va, 64)
	if acc < 0.8 {
		t.Fatalf("MLP accuracy %v after training, want >= 0.8", acc)
	}
}

func TestTrainingLearnsWithCNN(t *testing.T) {
	tr, va := dataset.TinyTask(300, 3, 37)
	in := Shape{C: 1, H: 8, W: 8}
	m := NewMNISTCNN(in, 3, 0.25, 9)
	opt := &SGD{LR: 0.05}
	loader := dataset.NewLoader(tr, 20, 5)
	for it := 0; it < 150; it++ {
		xs, ys := loader.Next()
		TrainBatch(m, opt, xs, ys)
	}
	_, acc := EvaluateDataset(m, va, 64)
	if acc < 0.7 {
		t.Fatalf("CNN accuracy %v after training, want >= 0.7", acc)
	}
}

func TestSGDMomentumMatchesManual(t *testing.T) {
	m := NewMLP(2, nil, 2, 1)
	opt := &SGD{LR: 0.1, Momentum: 0.9}
	// Fixed fake gradients twice; velocity accumulates.
	g := make([]float64, m.ParamCount())
	for i := range g {
		g[i] = 1
	}
	setGrads := func() {
		off := 0
		for _, p := range m.Params() {
			copy(p.Grad, g[off:off+len(p.Data)])
			off += len(p.Data)
		}
	}
	before := m.FlatParams(nil)
	setGrads()
	opt.Step(m)
	setGrads()
	opt.Step(m)
	after := m.FlatParams(nil)
	// Step1: v=1 → -0.1. Step2: v=1.9 → -0.19. Total -0.29.
	for i := range after {
		if math.Abs(after[i]-(before[i]-0.29)) > 1e-12 {
			t.Fatalf("momentum math wrong at %d: %v -> %v", i, before[i], after[i])
		}
	}
}

func TestEvaluateEmptyDataset(t *testing.T) {
	m := NewMLP(4, nil, 2, 1)
	loss, acc := EvaluateDataset(m, &dataset.Dataset{Classes: 2}, 8)
	if loss != 0 || acc != 0 {
		t.Fatal("empty dataset should evaluate to zeros")
	}
}

func BenchmarkForwardBackwardMNISTCNNQuarter(b *testing.B) {
	in := Shape{C: 1, H: 28, W: 28}
	m := NewMNISTCNN(in, 10, 0.25, 1)
	x, ys := randomBatch(in, 10, 8, 1)
	opt := &SGD{LR: 0.01}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrads()
		logits := m.Forward(x, true)
		_, dl := SoftmaxCrossEntropy(logits, ys)
		m.Backward(dl)
		opt.Step(m)
	}
}
