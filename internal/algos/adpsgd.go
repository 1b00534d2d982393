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
// async driver (the passive partner surrenders its current vector at
// delivery time); this node only trains and averages.

// adpsgdNode is one AD-PSGD rank.
type adpsgdNode struct {
	t          *core.Trainer
	localSteps int
}

// Compute implements engine.Node: localSteps minibatch SGD steps, then the
// dense parameters the rendezvous ships.
func (a *adpsgdNode) Compute(engine.RoundContext) (float64, []float64, error) {
	loss := a.t.LocalSGD(a.localSteps)
	// The live view ships: the async driver copies the payload before any
	// Merge can rewrite this rank in flight (DESIGN §2 "Sender aliasing").
	x, _ := a.t.Model.Flat()
	return loss, x, nil
}

// Snapshot implements engine.AsyncNode: the passive side of a rendezvous
// surrenders its current parameters. They ship as the live view: the
// driver consumes them before it merges into this rank (DESIGN §2 "Sender
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
