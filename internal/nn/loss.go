package nn

import (
	"fmt"
	"math"

	"sapspsgd/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss of a batch of
// logits against integer labels and the gradient dL/dlogits (already scaled
// by 1/batch, ready for Model.Backward). dlogits comes from the tensor pool
// and belongs to the caller.
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int) (loss float64, dlogits *tensor.Matrix) {
	if logits.Rows != len(labels) {
		panic(fmt.Sprintf("nn: %d logit rows vs %d labels", logits.Rows, len(labels)))
	}
	batch := logits.Rows
	dlogits = tensor.GetMatrix(batch, logits.Cols)
	invB := 1 / float64(batch)
	for i := 0; i < batch; i++ {
		row := logits.Row(i)
		y := labels[i]
		if y < 0 || y >= logits.Cols {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, logits.Cols))
		}
		// Numerically stable log-sum-exp.
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - maxV)
		}
		logZ := maxV + math.Log(sum)
		loss += float64((logZ - row[y]) * invB)
		d := dlogits.Row(i)
		for j, v := range row {
			p := math.Exp(v - logZ)
			d[j] = p * invB
		}
		d[y] -= invB
	}
	return loss, dlogits
}
