// Package topology provides the static communication topologies that
// decentralized SGD is classically run on — ring, 2-D torus, hypercube, and
// random regular expanders — together with their doubly stochastic gossip
// matrices and spectral properties. The paper's §II-C argues the ring is the
// best information spreader among ≤2-neighbor topologies and that choosing a
// maximum-bandwidth ring is NP-complete; this package makes those
// comparisons measurable (algos.NewDPSGDTopology runs D-PSGD over any of
// them).
package topology

import (
	"fmt"

	"sapspsgd/internal/graph"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// Topology is a named static undirected communication graph.
type Topology struct {
	Name string
	G    *graph.Graph
}

// Ring returns the cycle on n vertices.
func Ring(n int) Topology {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return Topology{Name: fmt.Sprintf("ring-%d", n), G: g}
}

// Torus returns the rows×cols 2-D torus (each vertex has 4 neighbors;
// degenerate dimensions collapse gracefully).
func Torus(rows, cols int) Topology {
	n := rows * cols
	g := graph.New(n)
	id := func(r, c int) int { return ((r+rows)%rows)*cols + (c+cols)%cols }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddEdge(id(r, c), id(r, c+1))
			g.AddEdge(id(r, c), id(r+1, c))
		}
	}
	return Topology{Name: fmt.Sprintf("torus-%dx%d", rows, cols), G: g}
}

// Hypercube returns the d-dimensional hypercube on 2^d vertices.
func Hypercube(d int) Topology {
	if d < 1 || d > 20 {
		panic(fmt.Sprintf("topology: hypercube dimension %d", d))
	}
	n := 1 << d
	g := graph.New(n)
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			g.AddEdge(v, v^(1<<b))
		}
	}
	return Topology{Name: fmt.Sprintf("hypercube-%d", d), G: g}
}

// RandomRegular returns a random d-regular graph on n vertices via the
// pairing model with retries (n·d must be even). Random regular graphs are
// expanders with high probability — near-optimal mixing at constant degree.
func RandomRegular(n, d int, r *rng.Source) Topology {
	if d < 1 || d >= n || n*d%2 != 0 {
		panic(fmt.Sprintf("topology: invalid regular graph n=%d d=%d", n, d))
	}
	for attempt := 0; attempt < 200; attempt++ {
		g := tryPairing(n, d, r)
		if g != nil && g.IsConnected() {
			return Topology{Name: fmt.Sprintf("random-%d-regular-%d", d, n), G: g}
		}
	}
	panic("topology: pairing model failed to produce a simple connected graph")
}

// tryPairing samples one pairing-model configuration; returns nil if it has
// self-loops or multi-edges.
func tryPairing(n, d int, r *rng.Source) *graph.Graph {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for k := 0; k < d; k++ {
			stubs = append(stubs, v)
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	g := graph.New(n)
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v || g.HasEdge(u, v) {
			return nil
		}
		g.AddEdge(u, v)
	}
	return g
}

// MetropolisW builds the Metropolis–Hastings doubly stochastic gossip
// matrix of a topology: W_ij = 1/(1+max(d_i,d_j)) for edges, and the
// diagonal absorbs the remainder. Symmetric and doubly stochastic for any
// graph.
func MetropolisW(t Topology) *tensor.Matrix {
	n := t.G.N
	w := tensor.NewMatrix(n, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = len(t.G.Neighbors(v))
	}
	for v := 0; v < n; v++ {
		rowSum := 0.0
		for _, u := range t.G.Neighbors(v) {
			dv, du := deg[v], deg[u]
			m := dv
			if du > m {
				m = du
			}
			val := 1 / float64(1+m)
			w.Set(v, u, val)
			rowSum += val
		}
		w.Set(v, v, 1-rowSum)
	}
	return w
}

// MeanLinkBandwidth returns the mean bandwidth over the topology's edges in
// the given environment — the per-round matched-bandwidth analogue for a
// static topology (every edge is used every round).
func MeanLinkBandwidth(t Topology, bw *netsim.Bandwidth) float64 {
	edges := t.G.Edges()
	if len(edges) == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range edges {
		sum += bw.MBps(e[0], e[1])
	}
	return sum / float64(len(edges))
}

// PerWorkerTrafficPerRound returns the number of dense-model payloads a
// worker sends+receives per round on this topology: 2 × its degree (send to
// and receive from every neighbor).
func PerWorkerTrafficPerRound(t Topology, worker int) int {
	return 2 * len(t.G.Neighbors(worker))
}
