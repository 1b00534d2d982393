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
// (net.x ← net.x − γ∇net.x). TrainBatch applies it a layer at a time,
// inside the backward pass.
type SGD struct {
	LR float64
}

// update steps the parameters x by their gradients g: x += (−γ)·g. Each
// word's arithmetic is its own, so a step taken piece by piece, in any
// order, has the bits of one elementwise pass over the whole vector.
func (s *SGD) update(x, g []float64) { tensor.Axpy(-s.LR, g, x) }

// TrainBatch performs one SGD step on a minibatch and returns the batch
// loss: a forward pass, then a backward pass that steps each layer's
// parameters as soon as that layer has computed its input gradient from the
// old ones (Model.backward). Loss and parameters have the bits of
// ComputeGrads followed by one update of the whole vector. The gradient
// vector is left undefined: a Dense never writes its part of it.
func TrainBatch(m *Model, opt *SGD, xs [][]float64, labels []int) float64 {
	return pass(m, xs, labels, opt)
}

// ComputeGrads runs forward/backward on a minibatch without updating,
// leaving the gradients in the model's accumulators — the building block for
// the all-reduce style baselines that average gradients before stepping.
func ComputeGrads(m *Model, xs [][]float64, labels []int) float64 {
	return pass(m, xs, labels, nil)
}

// pass is TrainBatch with opt set and ComputeGrads without. The batch
// matrix, the logits and dL/dlogits are this function's to recycle; the
// model recycles everything in between.
func pass(m *Model, xs [][]float64, labels []int, opt *SGD) float64 {
	x := BatchMatrix(xs)
	m.ZeroGrads()
	logits := m.Forward(x, true)
	loss, dl := SoftmaxCrossEntropy(logits, labels)
	m.backward(dl, opt)
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
