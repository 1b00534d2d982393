package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// Two rules of Model, pinned here: Backward asks the bottom layer for its
// parameter gradients only, and every Param is a view into the model's two
// flat vectors. Neither may change a bit of training.

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

// TestBottomLayerSkipMatchesFullBackward: one TrainBatch leaves every
// gradient and every parameter bit where freshTrainBatch — which runs the
// bottom layer's full Backward, dx included — leaves them, on inputs with
// signed zeros, infinities and NaN, and with an infinite bottom weight row
// (whose dx would be Inf or NaN).
func TestBottomLayerSkipMatchesFullBackward(t *testing.T) {
	inputs := []struct {
		name    string
		x       func(x *tensor.Matrix)
		infWRow bool
	}{
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
	for _, f := range families() {
		for _, in := range inputs {
			t.Run(f.name+"/"+in.name, func(t *testing.T) {
				x, ys := randomBatch(f.in, f.classes, f.batch, 5)
				in.x(x)
				build := func() *Model {
					m := f.build()
					if in.infWRow {
						tensor.Fill(bottomWeights(t, m).Row(0), math.Inf(1))
					}
					return m
				}
				want, got := build(), build()
				wantLoss := freshTrainBatch(want, &SGD{LR: 0.05}, rowsOf(x), ys)
				gotLoss := TrainBatch(got, &SGD{LR: 0.05}, rowsOf(x), ys)
				sameBits(t, "loss", []float64{gotLoss}, []float64{wantLoss})
				gotParams, gotGrads := got.Flat()
				wantParams, wantGrads := want.Flat()
				sameBits(t, "grads", gotGrads, wantGrads)
				sameBits(t, "params", gotParams, wantParams)
				if in.name == "normal" {
					for i, v := range gotGrads {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("grad %d is %v on finite inputs", i, v)
						}
					}
				}
			})
		}
	}
}

// spyDense is a Dense that counts calls of its full Backward.
type spyDense struct {
	*Dense
	full int
}

func (s *spyDense) Backward(dout *tensor.Matrix) *tensor.Matrix {
	s.full++
	return s.Dense.Backward(dout)
}

// TestBottomLayerComputesNoInputGradient: a training step asks every layer
// above the bottom one for dL/d(input), and the bottom one never.
func TestBottomLayerComputesNoInputGradient(t *testing.T) {
	r := rng.New(1)
	bottom, top := &spyDense{Dense: NewDense(64, 64, r)}, &spyDense{Dense: NewDense(64, 4, r)}
	m := NewModel("spy", Shape{C: 1, H: 1, W: 64}, 4, bottom, NewReLU(), top)
	x, ys := randomBatch(m.In, 4, 32, 2)
	for step := 1; step <= 3; step++ {
		ComputeGrads(m, rowsOf(x), ys)
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
