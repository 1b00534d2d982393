package nn

import (
	"math"
	"testing"

	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

func TestCheckpointCarriesBatchNormState(t *testing.T) {
	in := Shape{C: 1, H: 8, W: 8}
	m := NewResNet(in, 3, 1, 0.25, 5)
	// Train a little so running stats move off their init values.
	r := rng.New(7)
	x := tensor.NewMatrix(8, in.Dim())
	for i := range x.Data {
		x.Data[i] = 2 + r.NormFloat64()
	}
	ys := []int{0, 1, 2, 0, 1, 2, 0, 1}
	opt := &SGD{LR: 0.05}
	for it := 0; it < 20; it++ {
		TrainBatch(m, opt, rowsOf(x), ys)
	}
	refLogits := m.Forward(x, false)

	buf := saved(t, m)
	restored := NewResNet(in, 3, 1, 0.25, 99)
	if err := restored.LoadCheckpoint(buf); err != nil {
		t.Fatal(err)
	}
	gotLogits := restored.Forward(x, false)
	for i := range refLogits.Data {
		if math.Abs(refLogits.Data[i]-gotLogits.Data[i]) > 1e-12 {
			t.Fatalf("inference differs after reload at %d: %v vs %v — BN state lost",
				i, refLogits.Data[i], gotLogits.Data[i])
		}
	}
}

func TestBatchNormRunningStateRoundTrip(t *testing.T) {
	bn := NewBatchNorm2D(Shape{C: 3, H: 2, W: 2})
	s := bn.RunningState()
	if len(s) != 6 {
		t.Fatalf("state length %d", len(s))
	}
	s[0], s[3] = 7, 9
	bn.SetRunningState(s)
	got := bn.RunningState()
	if got[0] != 7 || got[3] != 9 {
		t.Fatal("state round trip failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad length")
		}
	}()
	bn.SetRunningState([]float64{1})
}
