package algos

import (
	"fmt"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/tensor"
)

// This file implements AD-PSGD (Lian et al., "Asynchronous Decentralized
// Parallel Stochastic Gradient Descent", ICML 2018) as an engine.AsyncNode:
// each rank loops local SGD and then rendezvouses with one uniformly drawn
// neighbor, both endpoints atomically averaging their parameter vectors
// x_i, x_j ← (x_i + x_j)/2. There is no global barrier; a slow rank delays
// only the partners that draw it. The atomic-average semantics live in the
// async driver: at delivery both endpoints surrender their current vectors
// (Snapshot) and each merges the other's; this node only trains and
// averages.

// adpsgdNode is one AD-PSGD rank.
type adpsgdNode struct {
	t          *core.Trainer
	localSteps int
}

// Compute implements engine.Node: localSteps minibatch SGD steps, then the
// dense parameters the rendezvous ships.
func (a *adpsgdNode) Compute(engine.RoundContext) (float64, []float64, error) {
	loss := a.t.LocalSGD(a.localSteps)
	// The live view ships: the async driver reads only its size here, and
	// averages the live states at delivery (DESIGN §2 "Sender aliasing").
	x, _ := a.t.Model.Flat()
	return loss, x, nil
}

// Snapshot implements engine.AsyncNode: both sides of a rendezvous
// surrender their current parameters at delivery. They ship as the live
// view: the driver copies the initiator's before any Merge, and consumes
// the partner's before it merges into the partner (DESIGN §2 "Sender
// aliasing").
func (a *adpsgdNode) Snapshot() []float64 {
	x, _ := a.t.Model.Flat()
	return x
}

// Merge implements engine.Node: the pairwise average x ← (x + x_peer)/2, in
// place.
func (a *adpsgdNode) Merge(_ engine.RoundContext, msgs []engine.PeerMsg) error {
	x, _ := a.t.Model.Flat()
	for _, m := range msgs {
		if len(m.Vals) != len(x) {
			return fmt.Errorf("algos: adpsgd rank received %d values for %d params", len(m.Vals), len(x))
		}
		tensor.Midpoint(x, m.Vals)
	}
	return nil
}

// AsyncFleet bundles one asynchronous algorithm's per-rank state for
// engine.NewAsync: the nodes, the shared codec table, and the live models
// whose average is the current global model.
type AsyncFleet struct {
	Nodes  []engine.AsyncNode
	Codecs []engine.Codec
	Models []*nn.Model
	Dim    int
}

// NewAsyncFleet builds the async fleet for an asynchronous recipe (adpsgd or
// gradpush) over the shared fleet plumbing: identically initialized models,
// deterministic per-rank loader streams.
func NewAsyncFleet(fc FleetConfig, r Recipe) *AsyncFleet {
	if err := r.Validate(); err != nil {
		panic(err)
	}
	if !r.Async() {
		panic("algos: NewAsyncFleet on synchronous recipe " + r.Algo)
	}
	f := NewFleet(fc)
	af := &AsyncFleet{
		Nodes:  make([]engine.AsyncNode, f.N),
		Codecs: r.Codecs(f.Dim),
		Models: f.Models,
		Dim:    f.Dim,
	}
	for i := 0; i < f.N; i++ {
		af.Nodes[i] = r.NewNode(i, f.Models[i], fc.Shards[i], nil).(engine.AsyncNode)
	}
	return af
}
