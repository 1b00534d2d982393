package nn

import (
	"bytes"
	"slices"
	"testing"
)

// TestCloneIsTheFactoryModel: a clone of a model that has trained a step is
// that model — the same checkpoint bytes, and the same bits after the next
// step — with zero gradients, storage of its own (training it moves nothing
// of the original), and every fused ReLU still fused.
func TestCloneIsTheFactoryModel(t *testing.T) {
	for _, f := range families() {
		t.Run(f.name, func(t *testing.T) {
			orig := f.build()
			x, ys := randomBatch(f.in, f.classes, f.batch, 3)
			TrainBatch(orig, &SGD{LR: 0.05}, rowsOf(x), ys) // running stats and gradients away from their initial values
			c := orig.Clone()

			if got, want := c.AppendCheckpoint(nil), orig.AppendCheckpoint(nil); !bytes.Equal(got, want) {
				t.Fatalf("clone's checkpoint differs from the original's (%d vs %d bytes)", len(got), len(want))
			}
			if _, grads := c.Flat(); slices.ContainsFunc(grads, func(g float64) bool { return g != 0 }) {
				t.Fatal("clone has non-zero gradients")
			}
			if len(c.layers) != len(orig.layers) {
				t.Fatalf("clone has %d layers, original %d", len(c.layers), len(orig.layers))
			}
			for i, l := range orig.layers {
				d, ok := l.(*Dense)
				if !ok {
					continue
				}
				if cd, ok := c.layers[i].(*Dense); !ok || cd.relu != d.relu {
					t.Fatalf("layer %d: clone has %T (fused relu %v), original a Dense with fused relu %v", i, c.layers[i], ok && cd.relu, d.relu)
				}
			}
			if orig.Name == "mlp" {
				for i, l := range c.layers[:len(c.layers)-1] {
					if d, ok := l.(*Dense); !ok || !d.relu {
						t.Fatalf("MLP clone's hidden layer %d is not a Dense with a fused ReLU", i)
					}
				}
			}

			params, grads := orig.Flat()
			wantParams, wantGrads, wantState := slices.Clone(params), slices.Clone(grads), orig.collectState()
			x2, ys2 := randomBatch(f.in, f.classes, f.batch, 4)
			cloneLoss := TrainBatch(c, &SGD{LR: 0.05}, rowsOf(x2), ys2)
			sameBits(t, "original's params after the clone trained", params, wantParams)
			sameBits(t, "original's grads after the clone trained", grads, wantGrads)
			for i, st := range orig.collectState() {
				sameBits(t, "original's running state after the clone trained", st, wantState[i])
			}

			origLoss := TrainBatch(orig, &SGD{LR: 0.05}, rowsOf(x2), ys2)
			sameBits(t, "loss", []float64{cloneLoss}, []float64{origLoss})
			cParams, cGrads := c.Flat()
			sameBits(t, "params", cParams, params)
			sameBits(t, "grads", cGrads, grads)
			if !bytes.Equal(c.AppendCheckpoint(nil), orig.AppendCheckpoint(nil)) {
				t.Fatal("checkpoints differ after one more step on each")
			}
		})
	}
}
