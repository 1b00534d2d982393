package algos

import (
	"math"
	"slices"
	"testing"

	"sapspsgd/internal/dataset"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
)

// nodeModel is the model a rank's node trains or, for a hub's server,
// serves.
func nodeModel(t *testing.T, node any) *nn.Model {
	t.Helper()
	switch n := node.(type) {
	case *engine.MaskedGossipNode:
		return n.W.Model
	case *gradAvgNode:
		return n.Model
	case *neighborMixNode:
		return n.Model
	case *dcdNode:
		return n.Model
	case *psWorkerNode:
		return n.Model
	case *fedWorkerNode:
		return n.Model
	case *psServerNode:
		return n.model
	case *fedServerNode:
		return n.model
	case *adpsgdNode:
		return n.t.Model
	case *gradPushNode:
		return n.t.Model
	}
	t.Fatalf("no model known for node %T", node)
	return nil
}

// checkOneX0 fails unless every model holds the same parameter bits and no
// two share a word of storage: each rank's vectors are overwritten with its
// own marks, which any overlap would let a later rank overwrite.
func checkOneX0(t *testing.T, models []*nn.Model) {
	t.Helper()
	want, _ := models[0].Flat()
	for r, m := range models {
		if got, _ := m.Flat(); !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("rank %d starts from other parameters than rank 0", r)
		}
	}
	for r, m := range models {
		params, grads := m.Flat()
		for i := range params {
			params[i], grads[i] = float64(r), float64(-r-1)
		}
	}
	for r, m := range models {
		params, grads := m.Flat()
		if slices.ContainsFunc(params, func(v float64) bool { return v != float64(r) }) ||
			slices.ContainsFunc(grads, func(v float64) bool { return v != float64(-r-1) }) {
			t.Fatalf("rank %d shares parameter or gradient storage with another rank", r)
		}
	}
}

// TestFleetDrawsX0Once: NewFleet, New and NewAsyncFleet call the factory
// once per fleet, for every recipe, a hub's server included; every rank
// starts from the same bits in storage of its own.
func TestFleetDrawsX0Once(t *testing.T) {
	const n = 4
	tr, _ := dataset.TinyTask(64, 4, 31)
	draws := 0
	fc := FleetConfig{
		N: n,
		Factory: func() *nn.Model {
			draws++
			return nn.NewMLP(tr.Dim(), []int{8, 8}, 4, 5)
		},
		Shards: dataset.PartitionIID(tr, n, 1),
		LR:     0.1,
		Batch:  4,
		Seed:   3,
	}
	f := NewFleet(fc)
	if draws != 1 {
		t.Fatalf("NewFleet drew x₀ %d times, want 1", draws)
	}
	checkOneX0(t, f.Models)

	bw := netsim.RandomUniform(n, 1, 5, rng.New(7))
	for _, algo := range AlgoNames {
		t.Run(algo, func(t *testing.T) {
			r := fc.recipe(Recipe{Algo: algo, Compression: 4, C: 4, Levels: 4, Fraction: 0.5, LocalSteps: 1})
			draws = 0
			var models []*nn.Model
			if r.Async() {
				af := NewAsyncFleet(fc, r)
				for _, node := range af.Nodes {
					models = append(models, nodeModel(t, node))
				}
			} else {
				a := newOver(fc, r, bw, gossip.Config{BThres: 2, TThres: 5}, Membership{})
				defer a.Close()
				for _, node := range a.eng.Nodes() {
					models = append(models, nodeModel(t, node))
				}
			}
			if draws != 1 {
				t.Fatalf("drew x₀ %d times, want 1", draws)
			}
			if len(models) != r.Nodes() {
				t.Fatalf("%d models for %d ranks", len(models), r.Nodes())
			}
			checkOneX0(t, models)
		})
	}
}

// BenchmarkNewFleet builds baselines32's fleet: 32 ranks of the
// 64→[256,256]→10 MLP.
func BenchmarkNewFleet(b *testing.B) {
	const n = 32
	tr, _ := dataset.TinyTask(4*n, 10, 7)
	fc := FleetConfig{
		N:       n,
		Factory: func() *nn.Model { return nn.NewMLP(tr.Dim(), []int{256, 256}, 10, 7) },
		Shards:  dataset.PartitionIID(tr, n, 7),
		LR:      0.05,
		Batch:   8,
		Seed:    7,
	}
	b.ReportAllocs()
	for range b.N {
		NewFleet(fc)
	}
}
