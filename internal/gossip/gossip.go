// Package gossip implements the gossip-matrix machinery of SAPS-PSGD:
// Algorithm 3 (GenerateGossipMatrix) with its recency-constrained,
// bandwidth-aware maximum matching, plus the static topologies used by the
// baselines (ring for D-PSGD/DCD-PSGD, uniform random matching for the
// RandomChoose comparison) and conversions to doubly stochastic matrices.
package gossip

import (
	"fmt"
	"time"

	"sapspsgd/internal/graph"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/obs"
	"sapspsgd/internal/rng"
)

// Config carries the two knobs of Algorithm 3.
type Config struct {
	// BThres is the bandwidth threshold (MB/s) defining the filtered matrix
	// B*: only links at least this fast are eligible while the
	// recently-connected graph stays connected (Algorithm 1, lines 9–12).
	BThres float64
	// TThres is the communication iteration gap: an edge used within the
	// last TThres rounds counts as "recently connected" (RC). Smaller values
	// force re-connection more often (faster mixing, lower bandwidth);
	// larger values favor bandwidth. Must be >= 1.
	TThres int
}

// Round is the output of one gossip-matrix generation: the peer matching.
type Round struct {
	Match graph.Matching
	// Forced reports whether this round had to inject connectivity-restoring
	// edges (the RC graph had gone stale/disconnected).
	Forced bool
}

// edgeKey packs an unordered vertex pair into one map key (smaller vertex in
// the high half, so unpacking recovers u < v).
func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// edgeStamp is one timestamp-matrix update awaiting TThres-window expiry.
type edgeStamp struct {
	key   uint64
	round int
}

// Generator produces the per-round gossip matchings for a bandwidth
// environment, maintaining the timestamp matrix R across rounds. It is the
// coordinator-side state of Algorithm 3.
//
// The implementation is fully sparse — O(N·TThres) state, never O(N²) — so
// it plans for 50k-node fleets. The timestamp matrix lives as an edge-keyed
// map whose entries expire once they leave the TThres recency window, the
// RC graph is maintained incrementally as edges are stamped and expired,
// and candidate edges stream out of the Bandwidth's CSR rows in
// lexicographic order, each link visited once whether the topology is
// complete or degree-limited. The B* candidate list of a connected round,
// packed for the greedy pass, is kept for the next: while the environment
// and the active set hold, a round costs the shuffle and the greedy scan of
// that list plus the matching (near-linear in E on the planner's sparse
// graphs, see graph.Matcher), and only a forced round, a changed active set
// or a new Bandwidth.Revision (an environment rewritten in place, as a
// jittered or traced netsim.RoundEnv is every round) walks the Bandwidth
// again. The matching sequence is bit-identical to the retained dense
// formulation (ReferenceGenerator); the equivalence suite pins that across
// N, seeds, churn, forced rounds and rewritten environments.
//
// One consequence of eviction: rounds must be generated in non-decreasing
// order (NextActive(t) then NextActive(t') with t' < t panics). The dense
// reference has no such restriction, but every driver advances rounds
// monotonically.
type Generator struct {
	bw   *netsim.Bandwidth
	cfg  Config
	seed uint64
	n    int

	// lastUsed is the sparse timestamp matrix R. Invariant: a key is
	// present iff its edge is currently recently-connected, i.e. its last
	// stamp is inside the TThres window of the most recent round — the map
	// and rcAdj always describe the same edge set.
	lastUsed map[uint64]int
	recent   []edgeStamp // FIFO of stamps awaiting expiry
	head     int         // index of the oldest un-expired stamp in recent
	rcAdj    [][]int32   // incremental RC adjacency (mirrors lastUsed)
	lastT    int         // most recent round generated

	// The last round's candidate list, as edges for the augmentation and
	// packed for the greedy pass. kept reports that it is the B* list over
	// the active set bstarOver (every entry true for nil) and the
	// environment's Revision bstarRev, which a connected round reuses while
	// both hold: a forced round overwrites it.
	candidate []graph.WeightedEdge
	packed    graph.Candidates
	bstarOver []bool
	bstarRev  uint64
	kept      bool

	// Per-round scratch, reused across rounds so steady-state planning
	// allocates only the matching it returns. extra and extraPacked are the
	// lines-6–8 completion's candidates.
	extra       []graph.WeightedEdge
	extraPacked graph.Candidates
	seen        []bool
	stack       []int32
	compOf      []int32
	matcher     graph.Matcher
	rnd         rng.Source

	// maxMatch calls that skipped the augmentation and that ran it, and B*
	// lists built, summed (tests read them).
	elided, augmented, builds int

	pm obs.PlannerMetrics
}

// rcPrealloc caps the RC adjacency entries preallocated per worker.
const rcPrealloc = 16

// NewGenerator returns a Generator over the environment bw. The seed drives
// the RandomlyMaxMatch randomization; generators constructed with equal
// arguments produce identical matching sequences.
func NewGenerator(bw *netsim.Bandwidth, cfg Config, seed uint64) *Generator {
	if cfg.TThres < 1 {
		panic(fmt.Sprintf("gossip: TThres %d < 1", cfg.TThres))
	}
	n := bw.N
	// A worker gains at most one RC edge per round and keeps it TThres
	// rounds, so windows of TThres entries carved from one slab never grow;
	// the cap bounds the slab for very long recency windows, whose lists
	// then grow by append like any slice.
	per := min(cfg.TThres, rcPrealloc)
	slab := make([]int32, n*per)
	rcAdj := make([][]int32, n)
	for v := range rcAdj {
		rcAdj[v] = slab[v*per : v*per : (v+1)*per]
	}
	return &Generator{
		bw:        bw,
		cfg:       cfg,
		seed:      seed,
		n:         n,
		lastUsed:  make(map[uint64]int),
		rcAdj:     rcAdj,
		lastT:     -1,
		bstarOver: make([]bool, n),
		seen:      make([]bool, n),
		compOf:    make([]int32, n),
		pm:        obs.Current().PlannerM(),
	}
}

// bstarHolds reports whether the kept B* list is the one the environment
// gives over active (nil: everyone).
func (g *Generator) bstarHolds(active []bool) bool {
	if !g.kept || g.bstarRev != g.bw.Revision() {
		return false
	}
	for i, over := range g.bstarOver {
		if over != (active == nil || active[i]) {
			return false
		}
	}
	return true
}

// expire pops every stamp that left the recency window at round t. A stamp
// only retires its edge if it is still the edge's latest use — a refreshed
// edge has a younger stamp later in the FIFO.
func (g *Generator) expire(t int) {
	cut := t - g.cfg.TThres
	for g.head < len(g.recent) && g.recent[g.head].round <= cut {
		st := g.recent[g.head]
		g.head++
		if last, ok := g.lastUsed[st.key]; ok && last == st.round {
			delete(g.lastUsed, st.key)
			u, v := int(st.key>>32), int(uint32(st.key))
			g.rcAdj[u] = removeNeighbor(g.rcAdj[u], int32(v))
			g.rcAdj[v] = removeNeighbor(g.rcAdj[v], int32(u))
		}
	}
	if g.head == len(g.recent) {
		g.recent, g.head = g.recent[:0], 0
	} else if g.head >= 1024 && g.head*2 >= len(g.recent) {
		n := copy(g.recent, g.recent[g.head:])
		g.recent, g.head = g.recent[:n], 0
	}
}

// removeNeighbor swap-deletes one occurrence of v (RC adjacency order is
// immaterial: only connectivity and the component partition are read).
func removeNeighbor(adj []int32, v int32) []int32 {
	for i, w := range adj {
		if w == v {
			adj[i] = adj[len(adj)-1]
			return adj[:len(adj)-1]
		}
	}
	return adj
}

// stamp records that edge (u, v) carried an exchange at round t.
func (g *Generator) stamp(u, v, t int) {
	key := edgeKey(u, v)
	if _, ok := g.lastUsed[key]; !ok {
		g.rcAdj[u] = append(g.rcAdj[u], int32(v))
		g.rcAdj[v] = append(g.rcAdj[v], int32(u))
	}
	g.lastUsed[key] = t
	g.recent = append(g.recent, edgeStamp{key: key, round: t})
}

// virtuallyComplete reports whether round t is early enough that never-used
// edges still count as recently connected. The timestamp matrix initializes
// to -1, and -1 > t-TThres holds through round TThres-2 — until then the RC
// graph contains every pair and is trivially connected, so neither it nor
// its components ever need materializing.
func (g *Generator) virtuallyComplete(t int) bool { return t <= g.cfg.TThres-2 }

// rcConnected reports whether the active-induced RC subgraph is connected at
// round t (vacuously true for fewer than two active vertices).
func (g *Generator) rcConnected(t int, active []bool) bool {
	if g.virtuallyComplete(t) {
		return true
	}
	n := g.n
	start, count := 0, n
	if active != nil {
		start, count = -1, 0
		for i := 0; i < n; i++ {
			if active[i] {
				count++
				if start == -1 {
					start = i
				}
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
	stack = append(stack, int32(start))
	seen[start] = true
	reached := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.rcAdj[v] {
			if seen[w] || (active != nil && !active[w]) {
				continue
			}
			seen[w] = true
			reached++
			stack = append(stack, w)
		}
	}
	g.stack = stack
	return reached == count
}

// rcComponents labels every vertex with its RC component. Labels follow the
// smallest-vertex discovery order, matching the dense FindConnectedSubgraph;
// only label equality is consumed downstream.
func (g *Generator) rcComponents() []int32 {
	compOf := g.compOf
	for i := range compOf {
		compOf[i] = -1
	}
	stack := g.stack[:0]
	var c int32
	for s := 0; s < g.n; s++ {
		if compOf[s] != -1 {
			continue
		}
		compOf[s] = c
		stack = append(stack, int32(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.rcAdj[v] {
				if compOf[w] == -1 {
					compOf[w] = c
					stack = append(stack, w)
				}
			}
		}
		c++
	}
	g.stack = stack[:0]
	return compOf
}

// NextActive runs Algorithm 3 for round t over the currently active workers
// (nil means all active): it returns the matching and updates the timestamp
// matrix R. Inactive workers are excluded from matching entirely — the
// federated-dynamics case the paper motivates (§I: workers "may join/leave
// the training randomly"). Connectivity bookkeeping (the RC graph) also
// restricts to active workers, so a long-absent worker cannot block the
// recency check.
func (g *Generator) NextActive(t int, active []bool) Round {
	n := g.n
	if t < g.lastT {
		panic(fmt.Sprintf("gossip: rounds must be non-decreasing (round %d after %d)", t, g.lastT))
	}
	var start time.Time
	if g.pm.Enabled() {
		start = time.Now()
	}
	g.lastT = t
	g.expire(t)
	rnd := &g.rnd
	rnd.Reseed(g.seed, uint64(t)+0x90551b)
	isActive := func(i int) bool { return active == nil || active[i] }

	forced := !g.rcConnected(t, active)
	switch {
	case forced:
		// Lines 4: connect the RC components using any available links.
		compOf := g.rcComponents()
		candidate := g.candidate[:0]
		g.bw.ForEachEdge(0, func(u, v int, w float64) {
			if isActive(u) && isActive(v) && compOf[u] != compOf[v] {
				candidate = append(candidate, graph.WeightedEdge{U: u, V: v, Weight: w})
			}
		})
		g.candidate = candidate
		g.packed.Load(n, candidate, true)
		g.kept = false
	case !g.bstarHolds(active):
		// Line 2: E = B* — the bandwidth-filtered graph, kept for the
		// rounds after while it holds.
		candidate := g.candidate[:0]
		g.bw.ForEachEdge(g.cfg.BThres, func(u, v int, w float64) {
			if isActive(u) && isActive(v) {
				candidate = append(candidate, graph.WeightedEdge{U: u, V: v, Weight: w})
			}
		})
		g.candidate = candidate
		g.packed.Load(n, candidate, true)
		for i := range g.bstarOver {
			g.bstarOver[i] = isActive(i)
		}
		g.bstarRev = g.bw.Revision()
		g.kept = true
		g.builds++
	}
	// Otherwise this round's E is the B* list kept from an earlier round.

	// Line 5: bandwidth-preferring maximum match on the candidate edges,
	// which join only active workers.
	live := n
	if active != nil {
		live = 0
		for _, a := range active {
			if a {
				live++
			}
		}
	}
	match, free := g.maxMatch(g.candidate, &g.packed, rnd, live)

	// Lines 6–8: complete the matching over still-unmatched active workers
	// using the unfiltered bandwidth matrix. With fewer than two of them
	// left there is no pair to complete.
	if left := live - 2*match.Size(); left >= 2 {
		extra := g.extra[:0]
		g.bw.ForEachEdge(0, func(u, v int, w float64) {
			if match[u] == -1 && match[v] == -1 && isActive(u) && isActive(v) {
				extra = append(extra, graph.WeightedEdge{U: u, V: v, Weight: w})
			}
		})
		g.extra = extra
		// Without a link between two leftover workers there is nothing to
		// complete (rnd is per-round, so skipping its draws changes nothing).
		if len(extra) > 0 {
			g.extraPacked.Load(n, extra, true)
			second, _ := g.maxMatch(extra, &g.extraPacked, rnd, left)
			for v, p := range second {
				if p > v && match[v] == -1 && match[p] == -1 {
					match[v] = p
					match[p] = v
				}
			}
		}
	}

	// Record timestamps for the edges used this round.
	for v, p := range match {
		if p > v {
			g.stamp(v, p, t)
		}
	}

	if g.pm.Enabled() {
		g.pm.PlanSeconds.Observe(time.Since(start).Seconds())
		g.pm.FreeAfterGreedy.Set(int64(free))
		g.pm.MatchedPairs.Set(int64(match.Size()))
		if forced {
			g.pm.ForcedRoundsTotal.Inc()
		}
	}
	return Round{Match: match, Forced: forced}
}

// maxMatch is Algorithm 3's bandwidth-aware maximum matching on the
// generator's workspace — the greedy weighted seed, completed to maximum
// cardinality by blossom augmentation — with its two steps timed for the
// metrics, for edges joining only live vertices, packed in scan. It also
// returns how many live vertices the greedy seed left free.
//
// Each call is rnd's last reader once its seed leaves at most one live
// vertex free: the round's stream is reseeded every round, the augmentation
// has no path to find, and lines 6–8 have no pair to complete. So the
// greedy scan stops there and the graph build and the augmentation's
// shuffles are skipped, with the matching unchanged.
func (g *Generator) maxMatch(edges []graph.WeightedEdge, scan *graph.Candidates, rnd *rng.Source, live int) (graph.Matching, int) {
	timed := g.pm.Enabled()
	var t0, t1 time.Time
	if timed {
		t0 = time.Now()
	}
	match := g.matcher.GreedyScan(scan, rnd, live)
	if timed {
		t1 = time.Now()
	}
	free := live - 2*match.Size()
	if free >= 2 {
		g.matcher.Load(g.n, edges)
		g.matcher.Augment(match, rnd)
		g.augmented++
	} else {
		g.elided++
	}
	if timed {
		g.pm.GreedySecondsTotal.Add(t1.Sub(t0).Seconds())
		g.pm.AugmentSecondsTotal.Add(time.Since(t1).Seconds())
	}
	return match, free
}

// RandomMatching returns a uniformly random maximum matching of the complete
// graph on n vertices — the paper's RandomChoose baseline ("another way to
// choose the communication peers ... randomly do maximum match").
func RandomMatching(n int, rnd *rng.Source) graph.Matching {
	perm := rnd.Perm(n)
	m := make(graph.Matching, n)
	for i := range m {
		m[i] = -1
	}
	for i := 0; i+1 < n; i += 2 {
		a, b := perm[i], perm[i+1]
		m[a] = b
		m[b] = a
	}
	return m
}

// RingNeighbors returns the two ring neighbors of worker i among n workers.
func RingNeighbors(i, n int) (prev, next int) {
	return (i + n - 1) % n, (i + 1) % n
}

// MeanMatchedBandwidth returns the mean bandwidth (MB/s) over the matched
// pairs — the per-iteration series plotted in Fig. 5. It returns 0 for an
// empty matching.
func MeanMatchedBandwidth(m graph.Matching, bw *netsim.Bandwidth) float64 {
	sum, k := 0.0, 0
	for v, p := range m {
		if p > v {
			sum += bw.MBps(v, p)
			k++
		}
	}
	if k == 0 {
		return 0
	}
	return sum / float64(k)
}

// RingMeanBandwidth returns the mean link bandwidth along the canonical ring
// 0→1→…→n-1→0, the quantity the paper averages over 5000 random matrices for
// the D-PSGD/DCD-PSGD rows of Fig. 5.
func RingMeanBandwidth(bw *netsim.Bandwidth) float64 {
	n := bw.N
	if n < 2 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += bw.MBps(i, (i+1)%n)
	}
	return sum / float64(n)
}
