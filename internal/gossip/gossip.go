// Package gossip implements the gossip-matrix machinery of SAPS-PSGD:
// Algorithm 3 (GenerateGossipMatrix) with its recency-constrained,
// bandwidth-aware maximum matching, plus the static topologies used by the
// baselines (ring for D-PSGD/DCD-PSGD, uniform random matching for the
// RandomChoose comparison) and conversions to doubly stochastic matrices.
package gossip

import (
	"fmt"
	"slices"
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

// slotStamp is one timestamp-matrix update awaiting TThres-window expiry:
// the link's u < v CSR slot, its lower endpoint u and the round.
type slotStamp struct {
	slot     int
	u, round int32
}

// Generator produces the per-round gossip matchings for a bandwidth
// environment, maintaining the timestamp matrix R across rounds. It is the
// coordinator-side state of Algorithm 3.
//
// The implementation is fully sparse — O(E + N·TThres) state, never O(N²) —
// so it plans for 50k-node fleets, and it reads the environment's CSR rows
// in place (netsim.Bandwidth.Rows): no round builds an edge list. R is one
// stamp per link slot whose entries expire once they leave the TThres
// recency window, and the RC graph is maintained incrementally as links are
// stamped and expired. Every candidate set of a round — B*, a forced round's
// connectivity-restoring links, the lines-6–8 completion's — is one
// graph.RowFilter over the rows: the greedy words are packed straight off
// them (ranked by one bucket table per Bandwidth.Revision) and, in a round
// that augments, the blossom's adjacency is laid out from those words, each
// vertex's list its filtered row. The B* words of a connected round are
// kept for the next, and so is B*'s pristine adjacency once a round
// augments over it: while the environment and the active set hold, a round
// costs the shuffle and the greedy scan of the kept words plus, if the seed
// leaves two vertices free, one copy of the adjacency and the matching
// (near-linear in E on the planner's sparse graphs, see graph.Matcher).
// Only a forced round, a changed active set or a new Bandwidth.Revision (an
// environment rewritten in place, as a jittered or traced netsim.RoundEnv
// is every round) reads the rows again.
// The matching sequence is bit-identical to the retained dense formulation
// (ReferenceGenerator); the equivalence suite pins that across N, seeds,
// churn, forced rounds and rewritten environments.
//
// One consequence of eviction: rounds must be generated in non-decreasing
// order (NextActive(t) then NextActive(t') with t' < t panics). The dense
// reference has no such restriction, but every driver advances rounds
// monotonically.
type Generator struct {
	bw   *netsim.Bandwidth
	rows graph.Rows // bw's links, read in place
	cfg  Config
	seed uint64
	n    int

	// lastUsed is the timestamp matrix R, one entry per CSR slot (only the
	// u < v slots are written): the round the link last carried an
	// exchange, or -1. Invariant: an entry is set iff its link is currently
	// recently-connected, i.e. its last stamp is inside the TThres window of
	// the most recent round — lastUsed and rcAdj always describe the same
	// edge set.
	lastUsed []int32
	recent   []slotStamp // FIFO of stamps awaiting expiry
	head     int         // index of the oldest un-expired stamp in recent
	rcAdj    [][]int32   // incremental RC adjacency (mirrors lastUsed)
	lastT    int         // most recent round generated

	// ranks are the links' greedy bucket ranks at the environment's
	// Revision ranksRev (none until ranked).
	ranks    graph.RowRanks
	ranksRev uint64
	ranked   bool

	// The round's candidate words. kept reports that they are B* over the
	// active set bstarOver (every entry true for nil) and the environment's
	// Revision bstarRev, which a connected round reuses while both hold: a
	// forced round overwrites them. bstar is B*'s pristine blossom
	// adjacency, loaded by the first round over the kept words that
	// augments (bstarLoaded) and copied into the matcher before each
	// Augment, which shuffles the copy.
	packed      graph.Candidates
	bstarOver   []bool
	bstarRev    uint64
	kept        bool
	bstar       graph.Graph
	bstarLoaded bool

	// Per-round scratch, reused across rounds so steady-state planning
	// allocates only the matching it returns. extraPacked, free and second
	// are the lines-6–8 completion's words, vertex mask and matching.
	extraPacked graph.Candidates
	free        []bool
	second      graph.Matching
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
	rows := bw.Rows()
	lastUsed := make([]int32, len(rows.Nbr))
	for k := range lastUsed {
		lastUsed[k] = -1
	}
	return &Generator{
		bw:        bw,
		rows:      rows,
		cfg:       cfg,
		seed:      seed,
		n:         n,
		lastUsed:  lastUsed,
		rcAdj:     rcAdj,
		lastT:     -1,
		bstarOver: make([]bool, n),
		free:      make([]bool, n),
		seen:      make([]bool, n),
		compOf:    make([]int32, n),
		pm:        obs.Current().PlannerM(),
	}
}

// bstarHolds reports whether the kept B* words are the ones the environment
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

// rowRanks returns the links' bucket ranks for the environment as it is
// now, refitting them after an in-place rewrite.
func (g *Generator) rowRanks() *graph.RowRanks {
	if rev := g.bw.Revision(); !g.ranked || g.ranksRev != rev {
		g.ranks.Fit(g.rows)
		g.ranksRev, g.ranked = rev, true
	}
	return &g.ranks
}

// slot returns the CSR slot of link (u, v), u < v, in u's row, or -1 if
// there is no such link.
func (g *Generator) slot(u, v int) int {
	row := g.rows.Nbr[g.rows.Off[u]:g.rows.Off[u+1]]
	if k, ok := slices.BinarySearch(row, int32(v)); ok {
		return g.rows.Off[u] + k
	}
	return -1
}

// expire pops every stamp that left the recency window at round t. A stamp
// only retires its link if it is still the link's latest use — a refreshed
// link has a younger stamp later in the FIFO.
func (g *Generator) expire(t int) {
	cut := t - g.cfg.TThres
	for g.head < len(g.recent) && int(g.recent[g.head].round) <= cut {
		st := g.recent[g.head]
		g.head++
		if g.lastUsed[st.slot] == st.round {
			g.lastUsed[st.slot] = -1
			u, v := st.u, g.rows.Nbr[st.slot]
			g.rcAdj[u] = removeNeighbor(g.rcAdj[u], v)
			g.rcAdj[v] = removeNeighbor(g.rcAdj[v], u)
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

// stamp records that link (u, v), u < v, carried an exchange at round t.
// Every matched pair is a link: each candidate set is one.
func (g *Generator) stamp(u, v, t int) {
	k := g.slot(u, v)
	if g.lastUsed[k] < 0 {
		g.rcAdj[u] = append(g.rcAdj[u], int32(v))
		g.rcAdj[v] = append(g.rcAdj[v], int32(u))
	}
	g.lastUsed[k] = int32(t)
	g.recent = append(g.recent, slotStamp{slot: k, u: int32(u), round: int32(t)})
}

// virtuallyComplete reports whether round t is early enough that never-used
// edges still count as recently connected. The timestamp matrix initializes
// to -1, and -1 > t-TThres holds through round TThres-2 — until then the RC
// graph contains every pair and is trivially connected, so neither it nor
// its components ever need materializing.
func (g *Generator) virtuallyComplete(t int) bool { return t <= g.cfg.TThres-2 }

// rcConnected reports whether the RC subgraph induced by the active set (not
// nil) is connected (vacuously true for fewer than two active vertices).
func (g *Generator) rcConnected(active []bool) bool {
	start, count := -1, 0
	for i, a := range active {
		if a {
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
	clear(seen)
	stack := append(g.stack[:0], int32(start))
	seen[start] = true
	reached := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.rcAdj[v] {
			if seen[w] || !active[w] {
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

// rcComponents labels every vertex with its RC component and returns the
// labels and how many components there are. Labels follow the
// smallest-vertex discovery order, matching the dense FindConnectedSubgraph;
// only label equality is consumed downstream.
func (g *Generator) rcComponents() ([]int32, int) {
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
	return compOf, int(c)
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

	// Is the RC graph over the active workers connected? With everyone
	// active one labelling answers it (connected iff one component) and
	// serves a forced round's filter too.
	var compOf []int32
	forced := false
	if !g.virtuallyComplete(t) {
		if active == nil {
			var comps int
			compOf, comps = g.rcComponents()
			forced = comps > 1
		} else if forced = !g.rcConnected(active); forced {
			compOf, _ = g.rcComponents()
		}
	}
	switch {
	case forced:
		// Line 4: connect the RC components using any available links.
		g.packed.LoadRows(g.rows, g.rowRanks(), graph.RowFilter{Mask: active, Labels: compOf})
		g.kept = false
	case !g.bstarHolds(active):
		// Line 2: E = B* — the bandwidth-filtered graph, kept for the
		// rounds after while it holds.
		g.packed.LoadRows(g.rows, g.rowRanks(), graph.RowFilter{MinWeight: g.cfg.BThres, Mask: active})
		for i := range g.bstarOver {
			g.bstarOver[i] = active == nil || active[i]
		}
		g.bstarRev = g.bw.Revision()
		g.kept, g.bstarLoaded = true, false
		g.builds++
	}
	// Otherwise this round's E is the B* kept from an earlier round.

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
	match, free := g.maxMatch(nil, &g.packed, !forced, rnd, live)

	// Lines 6–8: complete the matching over still-unmatched active workers
	// using the unfiltered bandwidth matrix. With fewer than two of them
	// left there is no pair to complete.
	if left := live - 2*match.Size(); left >= 2 {
		for v, p := range match {
			g.free[v] = p == -1 && (active == nil || active[v])
		}
		// Without a link between two leftover workers there is nothing to
		// complete (rnd is per-round, so skipping its draws changes nothing).
		if g.extraPacked.LoadRows(g.rows, g.rowRanks(), graph.RowFilter{Mask: g.free}) > 0 {
			g.second, _ = g.maxMatch(g.second, &g.extraPacked, false, rnd, left)
			for v, p := range g.second {
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
// metrics, over scan, candidate words loaded from the rows, whose links join
// only live vertices. The matching lands in dst's storage when it is long
// enough. When bstar is set the words are the kept B*, whose pristine
// adjacency is laid out once per build and copied for each augmentation;
// otherwise the augmentation's graph is laid out from the words afresh. It
// also returns how many live vertices the greedy seed left free.
//
// Each call is rnd's last reader once its seed leaves at most one live
// vertex free: the round's stream is reseeded every round, the augmentation
// has no path to find, and lines 6–8 have no pair to complete. So the
// greedy scan stops there and the graph load and the augmentation's
// shuffles are skipped, with the matching unchanged.
func (g *Generator) maxMatch(dst graph.Matching, scan *graph.Candidates, bstar bool, rnd *rng.Source, live int) (graph.Matching, int) {
	timed := g.pm.Enabled()
	var t0, t1 time.Time
	if timed {
		t0 = time.Now()
	}
	match := g.matcher.GreedyScan(dst, scan, rnd, live)
	if timed {
		t1 = time.Now()
	}
	free := live - 2*match.Size()
	if free >= 2 {
		switch {
		case !bstar:
			g.matcher.LoadCandidates(scan)
		case !g.bstarLoaded:
			g.bstar.LoadCandidates(scan)
			g.bstarLoaded = true
			fallthrough
		default:
			g.matcher.LoadGraph(&g.bstar)
		}
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
