package gossip

import (
	"fmt"

	"sapspsgd/internal/graph"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/rng"
)

// ReferenceGenerator is the retained dense O(N²) formulation of Algorithm 3:
// a full timestamp matrix R, a per-round RC-graph rebuild, and all-pairs
// candidate scans. It exists as the oracle for the sparse Generator — the
// equivalence suite pins that both produce bit-identical matching sequences
// — and for small-N diagnostics where clarity beats asymptotics. Use
// Generator everywhere else.
type ReferenceGenerator struct {
	bw   *netsim.Bandwidth
	cfg  Config
	seed uint64
	// lastUsed is the timestamp matrix R: lastUsed[i][j] is the last round
	// in which edge (i,j) carried an exchange, or -1 if never.
	lastUsed [][]int
	// Pooled connectivity scratch (the only concession to performance).
	seen  []bool
	stack []int
}

// NewReferenceGenerator returns the dense oracle over the environment bw.
// Equal arguments produce the matching sequence of NewGenerator exactly.
func NewReferenceGenerator(bw *netsim.Bandwidth, cfg Config, seed uint64) *ReferenceGenerator {
	if cfg.TThres < 1 {
		panic(fmt.Sprintf("gossip: TThres %d < 1", cfg.TThres))
	}
	n := bw.N
	last := make([][]int, n)
	for i := range last {
		last[i] = make([]int, n)
		for j := range last[i] {
			last[i][j] = -1
		}
	}
	return &ReferenceGenerator{bw: bw, cfg: cfg, seed: seed, lastUsed: last, seen: make([]bool, n)}
}

// rcGraph builds the graph of recently-connected edges at round t.
func (g *ReferenceGenerator) rcGraph(t int) *graph.Graph {
	var recent []graph.WeightedEdge
	for i := 0; i < g.bw.N; i++ {
		for j := i + 1; j < g.bw.N; j++ {
			if g.lastUsed[i][j] > t-g.cfg.TThres {
				recent = append(recent, graph.WeightedEdge{U: i, V: j})
			}
		}
	}
	return graph.NewFromEdges(g.bw.N, recent)
}

// NextActive runs Algorithm 3 for round t over the currently active workers
// (nil means all active), mirroring Generator.NextActive, and updates the
// timestamp matrix R.
func (g *ReferenceGenerator) NextActive(t int, active []bool) Round {
	n := g.bw.N
	rnd := rng.New(g.seed).Derive(uint64(t) + 0x90551b)
	isActive := func(i int) bool { return active == nil || active[i] }

	rc := g.rcGraph(t)
	// Restrict the connectivity question to active workers: build the
	// induced subgraph's component structure over active vertices only.
	connected := g.activeConnected(rc, active)

	var candidate []graph.WeightedEdge
	forced := false
	if connected {
		// Line 2: E = B* — the bandwidth-filtered graph.
		for _, e := range g.bw.AppendEdges(nil, g.cfg.BThres) {
			if isActive(e.U) && isActive(e.V) {
				candidate = append(candidate, e)
			}
		}
	} else {
		// Lines 4: connect the RC components using any available links.
		forced = true
		comps := rc.Components()
		compOf := make([]int, n)
		for ci, comp := range comps {
			for _, v := range comp {
				compOf[v] = ci
			}
		}
		for i := 0; i < n; i++ {
			if !isActive(i) {
				continue
			}
			for j := i + 1; j < n; j++ {
				if isActive(j) && compOf[i] != compOf[j] && g.bw.MBps(i, j) > 0 {
					candidate = append(candidate, graph.WeightedEdge{U: i, V: j, Weight: g.bw.MBps(i, j)})
				}
			}
		}
	}

	// Line 5: bandwidth-preferring maximum match on the candidate edges.
	match := bandwidthAware(n, candidate, rnd)

	// Lines 6–8: complete the matching over still-unmatched active workers
	// using the unfiltered bandwidth matrix.
	if match.Size() < n/2 {
		var extra []graph.WeightedEdge
		for i := 0; i < n; i++ {
			if match[i] != -1 || !isActive(i) {
				continue
			}
			for j := i + 1; j < n; j++ {
				if isActive(j) && match[j] == -1 && g.bw.MBps(i, j) > 0 {
					extra = append(extra, graph.WeightedEdge{U: i, V: j, Weight: g.bw.MBps(i, j)})
				}
			}
		}
		second := bandwidthAware(n, extra, rnd)
		for v, p := range second {
			if p > v && match[v] == -1 && match[p] == -1 {
				match[v] = p
				match[p] = v
			}
		}
	}

	// Record timestamps for the edges used this round.
	for v, p := range match {
		if p > v {
			g.lastUsed[v][p] = t
			g.lastUsed[p][v] = t
		}
	}

	return Round{Match: match, Forced: forced}
}

// bandwidthAware is Algorithm 3's line 5 on a throwaway workspace: the
// greedy seed, completed to maximum cardinality on the graph of the same
// edges.
func bandwidthAware(n int, edges []graph.WeightedEdge, rnd *rng.Source) graph.Matching {
	return graph.AugmentToMaximum(graph.NewFromEdges(n, edges), graph.GreedyWeightedMatching(n, edges, rnd), rnd)
}

// LastUsed exposes R[i][j] (for tests and diagnostics).
func (g *ReferenceGenerator) LastUsed(i, j int) int { return g.lastUsed[i][j] }

// activeConnected reports whether the active-induced subgraph of rc is
// connected (vacuously true for fewer than two active vertices). The seen
// and stack scratch persist on the generator across rounds.
func (g *ReferenceGenerator) activeConnected(rc *graph.Graph, active []bool) bool {
	var start = -1
	count := 0
	for i := 0; i < rc.N; i++ {
		if active == nil || active[i] {
			count++
			if start == -1 {
				start = i
			}
		}
	}
	if count <= 1 {
		return true
	}
	seen := g.seen
	for i := range seen {
		seen[i] = false
	}
	stack := g.stack[:0]
	stack = append(stack, start)
	seen[start] = true
	reached := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range rc.Neighbors(v) {
			if (active == nil || active[w]) && !seen[w] {
				seen[w] = true
				reached++
				stack = append(stack, w)
			}
		}
	}
	g.stack = stack
	return reached == count
}
