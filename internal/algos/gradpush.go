package algos

import (
	"fmt"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/tensor"
)

// This file implements Gradient Push — stochastic gradient push (Assran et
// al., "Stochastic Gradient Push for Distributed Deep Learning", ICML 2019)
// — as an engine.AsyncNode for the one-way async driver. Each rank keeps
// the push-sum pair (x, w): the de-biased model is z = x/w, gradients are
// taken at z and applied to x, and a gossip halves (x, w) locally while
// pushing the other half to one neighbor, whose Merge just adds it in. The
// receiver is never blocked (OneWay mode), which is the algorithm's whole
// point: pure one-sided communication. As in the paper's Algorithm 1, a
// push that lands while the receiver computes is merged after that block's
// step and push (the driver holds it in the rank's inbox). The payload is
// the dim+1 dense vector [x/2..., w/2] over the dense codec.
//
// Two rules keep the pair bounded when the in-flow stops — as it does for a
// straggler once the fast ranks have run their cycles and stopped pushing:
// the step on x is scaled by w, so the step on z is lr·g whatever w is; and
// a rank pushes only when mass has arrived since its last push. Without the
// second rule every push halves w with nothing coming back, and w reaches
// 2^-cycles. With it, w is halved at most once per arrival, and a rank cut
// off from in-flow keeps its w, trains on z alone and sends an empty
// payload, which costs no bytes and merges nothing.

// gradPushNode is one Gradient Push rank.
type gradPushNode struct {
	t          *core.Trainer
	lr         float64
	localSteps int
	x          []float64 // push-sum numerator
	w          float64   // push-sum weight
	out        []float64 // outbound [x/2, w/2] payload scratch
	fed        bool      // mass arrived since the last push (or none has been made)
}

// newGradPushNode initializes the pair at (x0, 1) so z0 equals the shared
// initial model.
func newGradPushNode(t *core.Trainer, lr float64, localSteps int) *gradPushNode {
	return &gradPushNode{
		t: t, lr: lr, localSteps: localSteps,
		x: t.Model.FlatParams(nil), w: 1, fed: true,
	}
}

// debias writes z = x/w into the model, so the trainer's forward/backward
// passes run on the de-biased parameters.
func (g *gradPushNode) debias() {
	z, _ := g.t.Model.Flat()
	inv := 1 / g.w
	for j, v := range g.x {
		z[j] = v * inv
	}
}

// Compute implements engine.Node: localSteps SGD steps on z applied to x,
// each scaled by w, then the halved (x, w) push payload — or an empty one
// when no mass has arrived since the last push. The local halves are kept
// immediately — the send is committed the moment it is scheduled. The
// payload is node scratch that only Compute and Snapshot write: the driver
// reads it as a view at delivery, before this rank's next block.
func (g *gradPushNode) Compute(engine.RoundContext) (float64, []float64, error) {
	total := 0.0
	_, grads := g.t.Model.Flat()
	for s := 0; s < g.localSteps; s++ {
		g.debias()
		total += g.t.GradStep()
		tensor.Axpy(-g.lr*g.w, grads, g.x)
	}
	if !g.fed {
		g.debias()
		return total / float64(g.localSteps), g.out[:0], nil
	}
	g.fed = false
	if cap(g.out) < len(g.x)+1 {
		g.out = make([]float64, len(g.x)+1)
	}
	g.out = g.out[:len(g.x)+1]
	for j, v := range g.x {
		half := 0.5 * v
		g.x[j] = half
		g.out[j] = half
	}
	g.w *= 0.5
	g.out[len(g.x)] = g.w
	// Leave the model at the post-step de-biased state (halving x and w
	// together does not change z).
	g.debias()
	return total / float64(g.localSteps), g.out, nil
}

// Snapshot implements engine.AsyncNode: the current (x, w) pair, written
// into the payload scratch. Gradient Push runs one-way, so the driver
// never calls it; tests read w through it.
func (g *gradPushNode) Snapshot() []float64 {
	if cap(g.out) < len(g.x)+1 {
		g.out = make([]float64, len(g.x)+1)
	}
	g.out = g.out[:len(g.x)+1]
	copy(g.out, g.x)
	g.out[len(g.x)] = g.w
	return g.out
}

// Merge implements engine.Node: push-sum reception, (x, w) += (x', w'). An
// empty payload is a push that was not made.
func (g *gradPushNode) Merge(_ engine.RoundContext, msgs []engine.PeerMsg) error {
	for _, m := range msgs {
		if len(m.Vals) == 0 {
			continue
		}
		if len(m.Vals) != len(g.x)+1 {
			return fmt.Errorf("algos: gradpush rank received %d values for %d params", len(m.Vals), len(g.x))
		}
		tensor.Axpy(1, m.Vals[:len(g.x)], g.x)
		g.w += m.Vals[len(g.x)]
		g.fed = true
		// Keep the evaluated model in sync with the freshly received mass.
		g.debias()
	}
	return nil
}
