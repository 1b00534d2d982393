package nn

import (
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/tensor"
)

// BatchMatrix packs per-sample vectors into one batch matrix (copying). The
// matrix comes from the tensor pool and belongs to the caller.
func BatchMatrix(xs [][]float64) *tensor.Matrix {
	if len(xs) == 0 {
		panic("nn: empty batch")
	}
	m := tensor.GetMatrix(len(xs), len(xs[0]))
	for i, x := range xs {
		row := m.Row(i)
		tensor.Fill(row[copy(row, x):], 0)
	}
	return m
}

// SGD is the plain stochastic gradient descent update of Algorithm 2
// (net.x ← net.x − γ∇net.x), with optional classical momentum.
type SGD struct {
	LR       float64
	Momentum float64
	velocity []float64
}

// Step applies one update using the model's accumulated gradients.
func (s *SGD) Step(m *Model) {
	x, grads := m.Flat()
	if s.Momentum == 0 {
		tensor.Axpy(-s.LR, grads, x)
		return
	}
	if len(s.velocity) != len(x) {
		s.velocity = make([]float64, len(x))
	}
	v, x := s.velocity[:len(grads)], x[:len(grads)]
	for i, g := range grads {
		v[i] = float64(s.Momentum*v[i]) + g
		x[i] -= float64(s.LR * v[i])
	}
}

// Velocity returns a copy of the optimizer's momentum buffer (nil when
// momentum is unused or no step has run yet). It belongs in a worker's
// round-boundary checkpoint alongside the model parameters.
func (s *SGD) Velocity() []float64 {
	if s.velocity == nil {
		return nil
	}
	return append([]float64(nil), s.velocity...)
}

// SetVelocity restores a momentum buffer captured by Velocity (nil clears
// it, matching a freshly constructed optimizer).
func (s *SGD) SetVelocity(v []float64) {
	if v == nil {
		s.velocity = nil
		return
	}
	s.velocity = append(s.velocity[:0], v...)
}

// TrainBatch performs one forward/backward/update cycle on a minibatch and
// returns the batch loss.
func TrainBatch(m *Model, opt *SGD, xs [][]float64, labels []int) float64 {
	loss := ComputeGrads(m, xs, labels)
	opt.Step(m)
	return loss
}

// ComputeGrads runs forward/backward on a minibatch without updating,
// leaving the gradients in the model's accumulators — the building block for
// the all-reduce style baselines that average gradients before stepping. The
// batch matrix, the logits and dL/dlogits are this function's to recycle;
// the model recycles everything in between.
func ComputeGrads(m *Model, xs [][]float64, labels []int) float64 {
	x := BatchMatrix(xs)
	m.ZeroGrads()
	logits := m.Forward(x, true)
	loss, dl := SoftmaxCrossEntropy(logits, labels)
	m.Backward(dl)
	tensor.PutMatrix(dl)
	tensor.PutMatrix(logits)
	tensor.PutMatrix(x)
	return loss
}

// EvaluateDataset returns the mean loss and top-1 accuracy of the model over
// the dataset, in inference mode, processed in batches of batchSize.
func EvaluateDataset(m *Model, d *dataset.Dataset, batchSize int) (loss, acc float64) {
	if d.Len() == 0 {
		return 0, 0
	}
	if batchSize < 1 {
		batchSize = 64
	}
	totalLoss := 0.0
	correct := 0
	xs := make([][]float64, 0, batchSize)
	ys := make([]int, 0, batchSize)
	for start := 0; start < d.Len(); start += batchSize {
		end := min(start+batchSize, d.Len())
		xs, ys = xs[:0], ys[:0]
		for _, s := range d.Samples[start:end] {
			xs = append(xs, s.X)
			ys = append(ys, s.Label)
		}
		x := BatchMatrix(xs)
		logits := m.Forward(x, false)
		l, dl := SoftmaxCrossEntropy(logits, ys)
		totalLoss += float64(l * float64(len(ys)))
		for i := 0; i < logits.Rows; i++ {
			if tensor.ArgMax(logits.Row(i)) == ys[i] {
				correct++
			}
		}
		tensor.PutMatrix(dl)
		tensor.PutMatrix(logits)
		tensor.PutMatrix(x)
	}
	return totalLoss / float64(d.Len()), float64(correct) / float64(d.Len())
}
