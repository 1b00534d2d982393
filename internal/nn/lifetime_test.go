package nn

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// Model recycles every inter-layer matrix through the tensor pool. These
// tests pin what that rests on: no layer returns or aliases its argument,
// nothing reads a pooled buffer before writing it, and the model releases
// each matrix exactly once.

// overlap reports whether the backing arrays of a and b share any element.
func overlap(a, b *tensor.Matrix) bool {
	x, y := a.Data[:cap(a.Data)], b.Data[:cap(b.Data)]
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	x0, y0 := uintptr(unsafe.Pointer(&x[0])), uintptr(unsafe.Pointer(&y[0]))
	return x0 < y0+uintptr(8*len(y)) && y0 < x0+uintptr(8*len(x))
}

func randomMatrix(rows, cols int, r *rng.Source) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

// rowsOf views a batch matrix as the per-sample slices TrainBatch takes.
func rowsOf(x *tensor.Matrix) [][]float64 {
	xs := make([][]float64, x.Rows)
	for i := range xs {
		xs[i] = x.Row(i)
	}
	return xs
}

func TestLayersNeverAliasTheirArgument(t *testing.T) {
	r := rng.New(3)
	img := Shape{C: 2, H: 4, W: 4}
	layers := map[string]Layer{
		"Dense":          NewDense(img.Dim(), 5, r),
		"ReLU":           NewReLU(),
		"Conv2D":         NewConv2D(img, 3, 3, 1, 1, r),
		"MaxPool2D":      NewMaxPool2D(img, 2),
		"GlobalAvgPool":  NewGlobalAvgPool(img),
		"BatchNorm2D":    NewBatchNorm2D(img),
		"Residual":       NewResidual(img, img.C, 1, r), // identity shortcut: short = x, dShort = dsum
		"Residual(proj)": NewResidual(img, 4, 2, r),
	}
	for name, l := range layers {
		x := randomMatrix(3, img.Dim(), r)
		eval1 := l.Forward(x, false)
		eval2 := l.Forward(x, false)
		out := l.Forward(x, true)
		dout := randomMatrix(out.Rows, out.Cols, r)
		dx := l.Backward(dout)
		for _, c := range []struct {
			what string
			a, b *tensor.Matrix
		}{
			{"eval Forward's result and its argument", eval1, x},
			{"two eval Forwards' results", eval1, eval2},
			{"training Forward's result and its argument", out, x},
			{"training and eval Forwards' results", out, eval2},
			{"Backward's result and its argument", dx, dout},
			{"Backward's result and the cached input", dx, x},
			{"Backward's result and Forward's", dx, out},
		} {
			if c.a == c.b || overlap(c.a, c.b) {
				t.Errorf("%s: %s share storage", name, c.what)
			}
		}
	}
}

// poolRetains reports whether a Put matrix comes back on the next Get; not
// so under the race detector, where sync.Pool drops Puts at random.
func poolRetains() bool {
	for i := 0; i < 32; i++ {
		m := tensor.GetMatrix(1, 1)
		tensor.PutMatrix(m)
		again := tensor.GetMatrix(1, 1)
		tensor.PutMatrix(again)
		if again != m {
			return false
		}
	}
	return true
}

// drainDistinct takes matrices of every small size class out of the pool
// and fails if two of them (or one of them and a matrix the caller still
// owns) share storage — what a double release leaves behind.
func drainDistinct(t *testing.T, owned ...*tensor.Matrix) {
	t.Helper()
	seen := append([]*tensor.Matrix(nil), owned...)
	for c := 0; c <= 12; c++ {
		for k := 0; k < 12; k++ {
			m := tensor.GetMatrix(1, 1<<c)
			for _, o := range seen {
				if m == o || overlap(m, o) {
					t.Fatalf("class %d: the pool handed out a buffer that is already out", c)
				}
			}
			seen = append(seen, m)
		}
	}
}

func TestModelReleasesEachMatrixOnce(t *testing.T) {
	const batch = 8
	m := NewMLP(64, []int{64}, 4, 1)
	twin := NewMLP(64, []int{64}, 4, 1)
	x, ys := randomBatch(m.In, 4, batch, 2)
	want := len(m.layers) - 1

	// Reference gradients: one plain training Forward/Backward.
	twin.ZeroGrads()
	_, dl := SoftmaxCrossEntropy(twin.Forward(x, true), ys)
	twin.Backward(dl)

	m.ZeroGrads()
	var logits *tensor.Matrix
	for rep := 0; rep < 5; rep++ {
		first := m.Forward(x, true) // never followed by a Backward
		if len(m.acts) != want {
			t.Fatalf("rep %d: %d held activations after Forward, want %d", rep, len(m.acts), want)
		}
		logits = m.Forward(x, true)
		if len(m.acts) != want || cap(m.acts) > 2*want {
			t.Fatalf("rep %d: activation list len %d cap %d after a second Forward, want %d", rep, len(m.acts), cap(m.acts), want)
		}
		if first == logits || overlap(first, logits) {
			t.Fatal("the second Forward recycled the first one's result, which is the caller's")
		}
		if rep < 4 {
			tensor.PutMatrix(logits)
		}
		tensor.PutMatrix(first)
	}
	// An eval Forward between a training Forward and its Backward neither
	// releases the held activations nor adds to them.
	evalOut := m.Forward(x, false)
	if len(m.acts) != want {
		t.Fatalf("%d held activations after an eval Forward, want %d", len(m.acts), want)
	}
	sameBits(t, "eval logits", evalOut.Data, logits.Data)
	_, dl2 := SoftmaxCrossEntropy(logits, ys)
	m.Backward(dl2)
	if len(m.acts) != 0 {
		t.Fatalf("%d held activations after Backward", len(m.acts))
	}
	_, grads := m.Flat()
	_, twinGrads := twin.Flat()
	sameBits(t, "grads", grads, twinGrads)
	sameBits(t, "caller's dlogits after Backward", dl2.Data, dl.Data)

	drainDistinct(t, x, logits, evalOut, dl, dl2)
}

// TestTrainStepZeroAlloc pins the training step at zero allocations on the
// MLP shapes of the saps512, baselines32 and async64 benchmark workloads.
func TestTrainStepZeroAlloc(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool is dropping Puts (race detector)")
	}
	for _, c := range []struct {
		name           string
		hidden         []int
		classes, batch int
	}{
		{"saps512", []int{64}, 4, 32},
		{"baselines32", []int{256, 256}, 10, 8},
		{"async64", []int{64}, 10, 16},
	} {
		m := NewMLP(64, c.hidden, c.classes, 1)
		opt := &SGD{LR: 0.05}
		x, ys := randomBatch(m.In, c.classes, c.batch, 4)
		xs := rowsOf(x)
		for i := 0; i < 3; i++ {
			TrainBatch(m, opt, xs, ys)
		}
		if n := testing.AllocsPerRun(50, func() { TrainBatch(m, opt, xs, ys) }); n != 0 {
			t.Errorf("%s: TrainBatch allocates %v times per step, want 0", c.name, n)
		}
		if n := testing.AllocsPerRun(50, func() { ComputeGrads(m, xs, ys) }); n != 0 {
			t.Errorf("%s: ComputeGrads allocates %v times per step, want 0", c.name, n)
		}
	}
}

// poisonPool leaves every small size class holding NaN-filled buffers, so a
// layer that reads a pooled matrix before writing it (as ReLU and Residual
// read NewMatrix's zero fill for their "else" branches) computes
// NaN instead of passing by luck of what the pool hands back.
func poisonPool() {
	var held []*tensor.Matrix
	for c := 0; c <= 12; c++ {
		for k := 0; k < 16; k++ {
			m := tensor.GetMatrix(1, 1<<c)
			tensor.Fill(m.Data, math.NaN())
			held = append(held, m)
		}
	}
	for _, m := range held {
		tensor.PutMatrix(m)
	}
}

// freshTrainBatch is TrainBatch as it stood before the pool: it releases
// nothing, so with the pool empty every matrix a layer asks for is a fresh
// zeroed allocation.
func freshTrainBatch(m *Model, opt *SGD, xs [][]float64, ys []int) float64 {
	act := tensor.NewMatrix(len(xs), len(xs[0]))
	for i, x := range xs {
		copy(act.Row(i), x)
	}
	m.ZeroGrads()
	for _, l := range m.layers {
		act = l.Forward(act, true)
	}
	loss, d := SoftmaxCrossEntropy(act, ys)
	for i := len(m.layers) - 1; i >= 0; i-- {
		d = m.layers[i].Backward(d)
	}
	opt.Step(m)
	return loss
}

func TestPoisonedPoolBitIdentical(t *testing.T) {
	img := Shape{C: 1, H: 8, W: 8}
	mixed := func() *Model {
		r := rng.New(11)
		conv := NewConv2D(img, 4, 3, 1, 1, r)
		pool := NewMaxPool2D(conv.OutShape, 2)
		res := NewResidual(pool.OutShape, 4, 1, r)
		proj := NewResidual(res.OutShape, 8, 2, r)
		fc := NewDense(proj.OutShape.Dim(), 16, r)
		return NewModel("mixed", img, 4, conv, NewReLU(), pool, res, proj,
			fc, NewReLU(), NewDense(16, 4, r))
	}
	for name, build := range map[string]func() *Model{
		"mlp64": func() *Model { return NewMLP(64, []int{64}, 4, 7) },
		"mixed": mixed,
	} {
		const steps, batch = 50, 8
		run := func(step func(*Model, *SGD, [][]float64, []int) float64, before func()) ([]float64, []float64) {
			m, opt := build(), &SGD{LR: 0.05, Momentum: 0.9}
			losses := make([]float64, steps)
			for s := range losses {
				x, ys := randomBatch(img, 4, batch, uint64(100+s))
				before()
				losses[s] = step(m, opt, rowsOf(x), ys)
			}
			return losses, m.FlatParams(nil)
		}
		// Two collections empty a sync.Pool (the first moves it to the victim
		// cache); the reference run then never refills it.
		runtime.GC()
		runtime.GC()
		wantLoss, wantParams := run(freshTrainBatch, func() {})
		gotLoss, gotParams := run(TrainBatch, poisonPool)
		sameBits(t, name+" losses", gotLoss, wantLoss)
		sameBits(t, name+" params", gotParams, wantParams)
		for _, v := range gotParams {
			if math.IsNaN(v) {
				t.Fatalf("%s: NaN parameters (sameBits treats all NaNs alike)", name)
			}
		}
	}
}

// TestConcurrentModelsShareThePool trains four models on four goroutines,
// as the engine's shards and the TCP workers do, and expects each to end
// where it ends alone: a pooled buffer is only ever one holder's.
func TestConcurrentModelsShareThePool(t *testing.T) {
	const models, steps, batch = 4, 40, 8
	train := func(seed uint64) []float64 {
		m, opt := NewMLP(64, []int{64}, 4, seed), &SGD{LR: 0.05}
		for s := 0; s < steps; s++ {
			x, ys := randomBatch(m.In, 4, batch, seed*1000+uint64(s))
			TrainBatch(m, opt, rowsOf(x), ys)
		}
		return m.FlatParams(nil)
	}
	var alone, together [models][]float64
	for i := range alone {
		alone[i] = train(uint64(i + 1))
	}
	var wg sync.WaitGroup
	for i := range together {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = train(uint64(i + 1))
		}()
	}
	wg.Wait()
	for i := range alone {
		sameBits(t, fmt.Sprintf("model %d", i), together[i], alone[i])
	}
}
