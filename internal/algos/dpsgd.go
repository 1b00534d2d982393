package algos

import (
	"fmt"

	"sapspsgd/internal/topology"
)

// Topology aliases topology.Topology for the DPSGDTopology constructor.
type Topology = topology.Topology

// MetropolisWeights converts a topology's Metropolis–Hastings gossip matrix
// into sparse per-worker weight rows (self weight included).
func MetropolisWeights(t Topology) []map[int]float64 {
	w := topology.MetropolisW(t)
	out := make([]map[int]float64, t.G.N)
	for i := 0; i < t.G.N; i++ {
		out[i] = make(map[int]float64, len(t.G.Neighbors(i))+1)
		for j, v := range w.Row(i) {
			if v != 0 {
				out[i][j] = v
			}
		}
	}
	return out
}

// NewDPSGDTopology is D-PSGD on an arbitrary static topology with
// Metropolis–Hastings mixing weights — the extension behind the topology
// ablation (ring vs torus vs hypercube vs random regular): more neighbors
// buy faster consensus at proportionally higher per-round traffic. Same
// node/codec composition as NewDPSGD, with the topology's adjacency driving
// the Neighborhood pattern. The topology must span exactly fc.N vertices and
// be connected.
func NewDPSGDTopology(fc FleetConfig, topo Topology) Algorithm {
	if topo.G.N != fc.N {
		panic(fmt.Sprintf("algos: topology has %d vertices for %d workers", topo.G.N, fc.N))
	}
	if !topo.G.IsConnected() {
		panic("algos: disconnected topology cannot reach consensus")
	}
	adj := make([][]int, fc.N)
	for i := range adj {
		adj[i] = topo.G.Neighbors(i)
	}
	mix := &mixGraph{name: "D-PSGD(" + topo.Name + ")", adj: adj, weights: MetropolisWeights(topo)}
	return New(fc, Recipe{Algo: "d-psgd", mix: mix}, nil)
}
