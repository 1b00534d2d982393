package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// Three rules of Model, pinned here: the backward pass asks the bottom layer
// for its parameter gradients only, TrainBatch steps each layer inside the
// backward pass, and every Param is a view into the model's two flat
// vectors. None may change a bit of training.

// family is one model family at a test size, with the batch it trains on.
type family struct {
	name           string
	in             Shape
	classes, batch int
	build          func() *Model
}

func families() []family {
	vec := Shape{C: 1, H: 1, W: 64}
	gray := Shape{C: 1, H: 8, W: 8}
	rgb := Shape{C: 3, H: 8, W: 8}
	// The MLPs are the benchmark workloads' shapes: hidden widths, classes
	// and batch of saps512, async64, and baselines32 (tcp8 too).
	return []family{
		{"mlp-64-4", vec, 4, 32, func() *Model { return NewMLP(64, []int{64}, 4, 1) }},
		{"mlp-64-10", vec, 10, 16, func() *Model { return NewMLP(64, []int{64}, 10, 1) }},
		{"mlp-256-256-10", vec, 10, 8, func() *Model { return NewMLP(64, []int{256, 256}, 10, 1) }},
		{"mnist-cnn", gray, 4, 4, func() *Model { return NewMNISTCNN(gray, 4, 0.25, 1) }},
		{"cifar-cnn", rgb, 4, 4, func() *Model { return NewCIFARCNN(rgb, 4, 0.25, 1) }},
		{"resnet", rgb, 4, 4, func() *Model { return NewResNet(rgb, 4, 1, 0.25, 1) }},
	}
}

// bottomWeights is the weight matrix of a model's first layer.
func bottomWeights(t *testing.T, m *Model) *tensor.Matrix {
	t.Helper()
	switch l := m.layers[0].(type) {
	case *Dense:
		return l.w
	case *Conv2D:
		return l.w
	}
	t.Fatalf("bottom layer %T has no weight matrix", m.layers[0])
	return nil
}

// oddInput is a batch edit, and whether the bottom layer's first weight row
// is set to +Inf (which makes its dx Inf or NaN).
type oddInput struct {
	name    string
	x       func(x *tensor.Matrix)
	infWRow bool
}

// oddInputs are the batches the bit-identity tests train on: normal ones,
// ones with signed zeros, one sample of ±Inf and NaN, and an infinite
// bottom weight row.
func oddInputs() []oddInput {
	return []oddInput{
		{"normal", func(*tensor.Matrix) {}, false},
		{"signed zeros", func(x *tensor.Matrix) {
			for i := range x.Data {
				switch i % 5 {
				case 1:
					x.Data[i] = math.Copysign(0, -1)
				case 3:
					x.Data[i] = 0
				}
			}
		}, false},
		{"±Inf and NaN in one sample", func(x *tensor.Matrix) {
			copy(x.Row(0), []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 0})
		}, false},
		{"Inf weight row", func(*tensor.Matrix) {}, true},
	}
}

// build returns f's model, with the bottom weight row of in set to +Inf.
func (in oddInput) build(t *testing.T, f family) *Model {
	m := f.build()
	if in.infWRow {
		tensor.Fill(bottomWeights(t, m).Row(0), math.Inf(1))
	}
	return m
}

// TestBottomLayerSkipMatchesFullBackward: ComputeGrads leaves every
// gradient bit, and TrainBatch every parameter bit, where freshGrads and
// freshTrainBatch — which run the bottom layer's full Backward, dx
// included — leave them, and both return the oracle's loss.
func TestBottomLayerSkipMatchesFullBackward(t *testing.T) {
	for _, f := range families() {
		for _, in := range oddInputs() {
			t.Run(f.name+"/"+in.name, func(t *testing.T) {
				x, ys := randomBatch(f.in, f.classes, f.batch, 5)
				in.x(x)
				want, got := in.build(t, f), in.build(t, f)
				wantLoss := freshGrads(want, rowsOf(x), ys)
				gotLoss := ComputeGrads(got, rowsOf(x), ys)
				sameBits(t, "ComputeGrads loss", []float64{gotLoss}, []float64{wantLoss})
				_, gotGrads := got.Flat()
				_, wantGrads := want.Flat()
				sameBits(t, "grads", gotGrads, wantGrads)
				if in.name == "normal" {
					for i, v := range gotGrads {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("grad %d is %v on finite inputs", i, v)
						}
					}
				}

				want, got = in.build(t, f), in.build(t, f)
				wantLoss = freshTrainBatch(want, &SGD{LR: 0.05}, rowsOf(x), ys)
				gotLoss = TrainBatch(got, &SGD{LR: 0.05}, rowsOf(x), ys)
				sameBits(t, "TrainBatch loss", []float64{gotLoss}, []float64{wantLoss})
				sameBits(t, "params", got.FlatParams(nil), want.FlatParams(nil))
			})
		}
	}
}

// TestStepInBackwardMatchesWholeVectorStep: over several steps, TrainBatch
// — each layer stepped inside the backward pass — returns freshTrainBatch's
// loss and leaves its parameters, bit for bit, in every family and on every
// odd input. Each subtest is named for the step it checks: plain SGD,
// momentum 0.
func TestStepInBackwardMatchesWholeVectorStep(t *testing.T) {
	const steps = 3
	for _, f := range families() {
		for _, in := range oddInputs() {
			t.Run(f.name+"/"+in.name+"/momentum=0", func(t *testing.T) {
				want, got := in.build(t, f), in.build(t, f)
				opt := &SGD{LR: 0.05}
				for s := 0; s < steps; s++ {
					x, ys := randomBatch(f.in, f.classes, f.batch, uint64(10+s))
					in.x(x)
					wantLoss := freshTrainBatch(want, opt, rowsOf(x), ys)
					gotLoss := TrainBatch(got, opt, rowsOf(x), ys)
					what := fmt.Sprintf("step %d ", s)
					sameBits(t, what+"loss", []float64{gotLoss}, []float64{wantLoss})
					sameBits(t, what+"params", got.FlatParams(nil), want.FlatParams(nil))
				}
			})
		}
	}
}

// TestTrainBatchLeavesAnMLPsGradientsAlone: a step-only MLP never writes
// its gradient vector — a NaN payload put there survives training steps
// bit for bit — and still trains as freshTrainBatch does.
func TestTrainBatchLeavesAnMLPsGradientsAlone(t *testing.T) {
	const payload = 0x7ff8_0000_dead_beef
	build := func() *Model { return NewMLP(64, []int{256, 256}, 10, 1) }
	m, oracle := build(), build()
	_, grads := m.Flat()
	tensor.Fill(grads, math.Float64frombits(payload))
	opt := &SGD{LR: 0.05}
	for s := 0; s < 3; s++ {
		x, ys := randomBatch(m.In, 10, 8, uint64(20+s))
		gotLoss := TrainBatch(m, opt, rowsOf(x), ys)
		wantLoss := freshTrainBatch(oracle, opt, rowsOf(x), ys)
		sameBits(t, "loss", []float64{gotLoss}, []float64{wantLoss})
	}
	sameBits(t, "params", m.FlatParams(nil), oracle.FlatParams(nil))
	for i, g := range grads {
		if b := math.Float64bits(g); b != payload {
			t.Fatalf("grad %d reads %#x after TrainBatch, want the payload %#x", i, b, uint64(payload))
		}
	}
}

// spyDense is a Dense that counts the backward passes asked for dx.
type spyDense struct {
	*Dense
	full int
}

func (s *spyDense) backward(dout *tensor.Matrix, wantDx bool, opt *SGD) *tensor.Matrix {
	if wantDx {
		s.full++
	}
	return s.Dense.backward(dout, wantDx, opt)
}

// TestBottomLayerComputesNoInputGradient: a training step, with or without
// the update, asks every layer above the bottom one for dL/d(input), and
// the bottom one never.
func TestBottomLayerComputesNoInputGradient(t *testing.T) {
	r := rng.New(1)
	bottom, top := &spyDense{Dense: NewDense(64, 64, r)}, &spyDense{Dense: NewDense(64, 4, r)}
	m := NewModel("spy", Shape{C: 1, H: 1, W: 64}, 4, bottom, NewReLU(), top)
	x, ys := randomBatch(m.In, 4, 32, 2)
	opt := &SGD{LR: 0.05}
	for step := 1; step <= 4; step++ {
		if step%2 == 0 {
			TrainBatch(m, opt, rowsOf(x), ys)
		} else {
			ComputeGrads(m, rowsOf(x), ys)
		}
		if bottom.full != 0 || top.full != step {
			t.Fatalf("after %d steps: the bottom layer computed dL/dx %d times, the top %d; want 0 and %d", step, bottom.full, top.full, step)
		}
	}
}

// at reports whether v is flat[off:off+len(v)] with no capacity beyond it,
// so that no append to v can write the next parameter.
func at(v, flat []float64, off int) bool {
	return len(v) > 0 && off+len(v) <= len(flat) && &v[0] == &flat[off] && cap(v) == len(v)
}

// TestParamsAreViewsOfTheFlatVectors: in every family, the registry and
// every layer's own Params (the storage its kernels use) tile the model's
// parameter and gradient vectors in registry order, with nothing left over.
func TestParamsAreViewsOfTheFlatVectors(t *testing.T) {
	for _, f := range families() {
		m := f.build()
		params, grads := m.Flat()
		if len(params) != m.ParamCount() || len(grads) != m.ParamCount() {
			t.Fatalf("%s: vectors of %d and %d words, %d parameters", f.name, len(params), len(grads), m.ParamCount())
		}
		var live []Param
		for _, l := range m.layers {
			live = append(live, l.Params()...)
		}
		for what, reg := range map[string][]Param{"registry": m.Params(), "layers": live} {
			off := 0
			for i, p := range reg {
				if !at(p.Data, params, off) || !at(p.Grad, grads, off) {
					t.Fatalf("%s %s: param %d (%s) is not the flat vectors at offset %d", f.name, what, i, p.Name, off)
				}
				off += len(p.Data)
			}
			if off != len(params) {
				t.Fatalf("%s %s: params cover %d of %d words", f.name, what, off, len(params))
			}
		}
	}
}

// TestNewMLPAllocatesItsVectorsOnce: the MLP's layers are built into the
// model's vectors, so construction allocates the parameters and gradients
// once — a fleet of them is set up with no second copy to collect.
func TestNewMLPAllocatesItsVectorsOnce(t *testing.T) {
	hidden := []int{256, 256}
	vectors := uint64(2 * 8 * MLPParamCount(64, hidden, 10))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewMLP(64, hidden, 10, 1)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > vectors+vectors/10 {
		t.Fatalf("NewMLP allocated %d bytes for %d bytes of vectors", got, vectors)
	}
	runtime.KeepAlive(m)
}

// TestFlatIsLiveFlatParamsIsACopy: a write through the view is a write to
// every Param; FlatParams' result does not follow a later step.
func TestFlatIsLiveFlatParamsIsACopy(t *testing.T) {
	m := NewMLP(64, []int{64}, 4, 1)
	params, _ := m.Flat()
	for i := range params {
		params[i] = float64(i) / 1000
	}
	off := 0
	for _, p := range m.Params() {
		for j, v := range p.Data {
			if v != float64(off+j)/1000 {
				t.Fatalf("%s[%d] = %v after writing the view", p.Name, j, v)
			}
		}
		off += len(p.Data)
	}

	saved := m.FlatParams(nil)
	kept := append([]float64(nil), saved...)
	x, ys := randomBatch(m.In, 4, 8, 3)
	TrainBatch(m, &SGD{LR: 0.05}, rowsOf(x), ys)
	sameBits(t, "FlatParams' copy after a step", saved, kept)
	moved := 0
	for i, v := range params {
		if v != kept[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the step changed no parameter the view shows")
	}
}

// unslotted has a parameter but does not say where it keeps it.
type unslotted struct{ *ReLU }

func (unslotted) Params() []Param {
	return []Param{{Name: "u", Data: make([]float64, 2), Grad: make([]float64, 2)}}
}

func TestNewModelRefusesAnUnslottedParameter(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewModel accepted a layer whose parameters it cannot move")
		}
	}()
	NewModel("unslotted", Shape{C: 1, H: 1, W: 2}, 2, unslotted{NewReLU()})
}

var trainBatchSink float64

// BenchmarkTrainBatch times one TrainBatch on the benchmark workloads' MLP
// shapes and on MNIST-CNN at width 0.25:
//
//	go test -run '^$' -bench TrainBatch -cpu 1 ./internal/nn
func BenchmarkTrainBatch(b *testing.B) {
	mnist := Shape{C: 1, H: 28, W: 28}
	for _, f := range append(families()[:3],
		family{"mnist-cnn", mnist, 10, 8, func() *Model { return NewMNISTCNN(mnist, 10, 0.25, 1) }}) {
		b.Run(fmt.Sprintf("%s/batch=%d", f.name, f.batch), func(b *testing.B) {
			m, opt := f.build(), &SGD{LR: 0.05}
			x, ys := randomBatch(f.in, f.classes, f.batch, 4)
			xs := rowsOf(x)
			trainBatchSink += TrainBatch(m, opt, xs, ys) // fills the tensor pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trainBatchSink += TrainBatch(m, opt, xs, ys)
			}
		})
	}
}

// BenchmarkDenseForward times one training Dense.Forward on the benchmark
// workloads' layer shapes (in→out at a batch):
//
//	go test -run '^$' -bench DenseForward -cpu 1 ./internal/nn
func BenchmarkDenseForward(b *testing.B) {
	for _, c := range []struct{ in, out, batch int }{
		{64, 256, 8}, {256, 256, 8}, {64, 64, 16}, {64, 64, 32},
	} {
		b.Run(fmt.Sprintf("%d-%d/batch=%d", c.in, c.out, c.batch), func(b *testing.B) {
			r := rng.New(1)
			d := NewDense(c.in, c.out, r)
			x := tensor.NewMatrix(c.batch, c.in)
			fillNormal(x.Data, r, false)
			tensor.PutMatrix(d.Forward(x, true)) // fills the tensor pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.PutMatrix(d.Forward(x, true))
			}
		})
	}
}
