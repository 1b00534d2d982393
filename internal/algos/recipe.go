package algos

import (
	"fmt"
	"math/bits"
	"slices"

	"sapspsgd/internal/compress"
	"sapspsgd/internal/core"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
)

// Recipe is the deployment-neutral description of one algorithm run: enough
// to assemble the engine.Pattern, the per-rank engine.Codecs, each rank's
// engine.Node, and the coordinator-side engine.Planner — whether all ranks
// live in one process (the fleet constructors below) or one per machine (the
// TCP transport builds its single rank from the same recipe, so both
// deployments produce bit-identical trajectories).
type Recipe struct {
	// Algo selects the algorithm: saps | randomchoose | psgd | topk-psgd |
	// qsgd-psgd | d-psgd | dcd-psgd | ps-psgd | fedavg | s-fedavg, or the
	// asynchronous recipes adpsgd | gradpush (driven by engine.AsyncEngine
	// instead of the round loop — see Async). It is the only name an
	// algorithm has, and this package the only code that branches on it: a
	// caller asks the recipe's methods instead.
	Algo string
	// Workers is the trainer count n. Hub algorithms add the parameter
	// server as one extra rank (rank n), so Nodes() is n or n+1.
	Workers int
	LR      float64
	Batch   int
	Seed    uint64
	// Compression is the SAPS family's shared-mask ratio c.
	Compression float64
	// LocalSteps is the local SGD steps per round (SAPS, FedAvg).
	LocalSteps int
	// C is the sparsifier ratio for topk-psgd, dcd-psgd and s-fedavg.
	C float64
	// Levels is the QSGD level count s.
	Levels int
	// Fraction is the FedAvg per-round participation ratio.
	Fraction float64

	// mix, when set, replaces d-psgd's ring with another static topology
	// (in-package only: the topology ablation in topology_test.go).
	mix *mixGraph
}

// mixGraph is a named static gossip topology: each rank's neighbours. It
// must be connected, or the fleet cannot reach consensus.
type mixGraph struct {
	name string
	adj  [][]int
}

// AlgoNames lists the recipes' canonical -algo values.
var AlgoNames = []string{
	"saps", "randomchoose", "psgd", "topk-psgd", "qsgd-psgd", "d-psgd", "dcd-psgd", "ps-psgd", "fedavg", "s-fedavg",
	"adpsgd", "gradpush",
}

// Names lists, in AlgoNames order, the algorithms whose recipe answers has
// (a method expression such as Recipe.Pairwise) with true.
func Names(has func(Recipe) bool) []string {
	var out []string
	for _, algo := range AlgoNames {
		if has(Recipe{Algo: algo}) {
			out = append(out, algo)
		}
	}
	return out
}

// Validate returns an error describing the first invalid field, if any.
func (r Recipe) Validate() error {
	switch {
	case r.Workers < 2:
		return fmt.Errorf("algos: recipe for %d workers", r.Workers)
	case r.LR <= 0 || r.Batch < 1:
		return fmt.Errorf("algos: recipe LR %v batch %d", r.LR, r.Batch)
	}
	switch r.Algo {
	case "saps", "randomchoose":
		if r.Compression < 1 {
			return fmt.Errorf("algos: %s compression %v", r.Algo, r.Compression)
		}
	case "psgd", "ps-psgd", "adpsgd", "gradpush":
	case "d-psgd":
		if r.mix != nil && len(r.mix.adj) != r.Workers {
			return fmt.Errorf("algos: topology %s has %d vertices for %d workers", r.mix.name, len(r.mix.adj), r.Workers)
		}
	case "topk-psgd", "dcd-psgd":
		if r.C < 1 {
			return fmt.Errorf("algos: %s ratio c=%v", r.Algo, r.C)
		}
	case "qsgd-psgd":
		if r.Levels < 1 {
			return fmt.Errorf("algos: qsgd levels %d", r.Levels)
		}
		if w := bits.Len(2 * uint(r.Levels)); w >= 32 {
			return fmt.Errorf("algos: qsgd levels %d need %d-bit codes, no narrower than the float32 they replace", r.Levels, w)
		}
	case "fedavg", "s-fedavg":
		if r.Fraction <= 0 || r.Fraction > 1 {
			return fmt.Errorf("algos: fedavg fraction %v", r.Fraction)
		}
		if r.LocalSteps < 1 {
			return fmt.Errorf("algos: fedavg local steps %d", r.LocalSteps)
		}
		if r.Algo == "s-fedavg" && r.C < 1 {
			return fmt.Errorf("algos: s-fedavg ratio c=%v", r.C)
		}
	default:
		return fmt.Errorf("algos: unknown algorithm %q (have %v)", r.Algo, AlgoNames)
	}
	return nil
}

// RatioField names the spec field the recipe reads its compression ratio
// from: "compression" for the SAPS family's shared mask, "c" for a
// sparsifier's budget N/c, and "" for a recipe with no ratio.
func (r Recipe) RatioField() string {
	switch r.Algo {
	case "saps", "randomchoose":
		return "compression"
	case "topk-psgd", "dcd-psgd", "s-fedavg":
		return "c"
	}
	return ""
}

// Adaptive reports whether the recipe plans with Algorithm 3 — the
// bandwidth-aware matching under the gossip thresholds — over a Membership:
// the one recipe that reads churn, faults and a trace's join/leave events.
func (r Recipe) Adaptive() bool { return r.Algo == "saps" }

// Pairwise reports whether the recipe exchanges in matched pairs (the SAPS
// family): its rounds are matchings a trace records, and its coordinator
// side can run alone (NewPlannerOnly).
func (r Recipe) Pairwise() bool { return r.Algo == "saps" || r.Algo == "randomchoose" }

// AnyPair reports whether the recipe may exchange between any two nodes — an
// all-reduce, an all-gather or a uniform matching — and so needs a link
// between every pair.
func (r Recipe) AnyPair() bool {
	switch r.Algo {
	case "psgd", "topk-psgd", "qsgd-psgd", "randomchoose":
		return true
	}
	return false
}

// Hub reports whether the recipe deploys a parameter server.
func (r Recipe) Hub() bool {
	return r.Algo == "ps-psgd" || r.Algo == "fedavg" || r.Algo == "s-fedavg"
}

// Async reports whether the recipe is an asynchronous (barrier-free)
// algorithm: it has no synchronous Pattern and runs on engine.AsyncEngine
// (see NewAsyncFleet).
func (r Recipe) Async() bool {
	return r.Algo == "adpsgd" || r.Algo == "gradpush"
}

// OneWay reports whether the async recipe gossips one-way (push) instead of
// by bidirectional rendezvous.
func (r Recipe) OneWay() bool { return r.Algo == "gradpush" }

// Nodes is the total rank count (trainers plus server).
func (r Recipe) Nodes() int {
	if r.Hub() {
		return r.Workers + 1
	}
	return r.Workers
}

// ServerRank is the hub rank, or -1 for serverless algorithms.
func (r Recipe) ServerRank() int {
	if r.Hub() {
		return r.Workers
	}
	return -1
}

// localSteps returns the configured local steps, defaulting to 1.
func (r Recipe) localSteps() int {
	if r.LocalSteps < 1 {
		return 1
	}
	return r.LocalSteps
}

// sparseK is the sparsifier budget N/c, at least 1.
func sparseK(dim int, c float64) int {
	k := int(float64(dim) / c)
	if k < 1 {
		k = 1
	}
	return k
}

// ringAdjacency is the static ring the paper's decentralized baselines run
// on. Every rank's NewNode asks for it, so the lists share one backing array.
func ringAdjacency(n int) [][]int {
	adj := make([][]int, n)
	nbrs := make([]int, 0, 2*n)
	for i := range adj {
		prev, next := gossip.RingNeighbors(i, n)
		from := len(nbrs)
		nbrs = append(nbrs, prev)
		if next != prev { // n == 2: one neighbor
			nbrs = append(nbrs, next)
		}
		adj[i] = nbrs[from:len(nbrs):len(nbrs)]
	}
	return adj
}

// adjacency is the static topology the decentralized baselines gossip over:
// the paper's ring, unless mix replaces it.
func (r Recipe) adjacency() [][]int {
	if r.mix != nil {
		return r.mix.adj
	}
	return ringAdjacency(r.Workers)
}

// mixEntry is one term of a rank's mixing row: a rank (its own or a
// neighbour's), the weight W_ij, and for DCD-PSGD the public replica kept of
// that rank.
type mixEntry struct {
	rank    int
	w       float64
	replica []float64
}

// mixRow is a mixing row in ascending rank — the order every float
// accumulation over it runs in, so a row of any degree sums the same way in
// every run and every process.
type mixRow []mixEntry

// find returns the row's entry for rank, or nil for a non-neighbour.
func (row mixRow) find(rank int) *mixEntry {
	k, ok := slices.BinarySearchFunc(row, rank, func(e mixEntry, rank int) int { return e.rank - rank })
	if !ok {
		return nil
	}
	return &row[k]
}

// metropolisRow is rank i's row of the Metropolis–Hastings mixing matrix
// over adj, self weight included: W_ij = 1/(1+max(d_i,d_j)) for a neighbour
// j, and W_ii absorbs the remainder — symmetric and doubly stochastic on any
// graph. On the paper's ring that is the uniform 1/3.
func metropolisRow(adj [][]int, i int) mixRow {
	row := make(mixRow, 0, len(adj[i])+1)
	sum := 0.0
	for _, j := range adj[i] {
		w := 1 / float64(1+max(len(adj[i]), len(adj[j])))
		row = append(row, mixEntry{rank: j, w: w})
		sum += w
	}
	row = append(row, mixEntry{rank: i, w: 1 - sum})
	slices.SortFunc(row, func(a, b mixEntry) int { return a.rank - b.rank })
	return row
}

// Pattern assembles the recipe's exchange pattern. What the payloads' wire
// words are — sparse, QSGD at r.Levels, or anything else — is a fact of the
// algorithm, set here, so a pattern reads them without asking the codecs.
func (r Recipe) Pattern() engine.Pattern {
	switch r.Algo {
	case "saps", "randomchoose":
		return engine.Pairwise{}
	case "psgd":
		return engine.Collective{}
	case "topk-psgd":
		return engine.AllGather{Sparse: true}
	case "qsgd-psgd":
		return engine.AllGather{Levels: r.Levels}
	case "d-psgd":
		return engine.NewNeighborhood(r.adjacency(), false)
	case "dcd-psgd":
		p := engine.NewNeighborhood(r.adjacency(), true)
		p.Sparse = true
		return p
	case "ps-psgd", "fedavg":
		return engine.Hub{Server: r.ServerRank()}
	case "s-fedavg":
		return engine.Hub{Server: r.ServerRank(), Sparse: true}
	case "adpsgd", "gradpush":
		panic("algos: asynchronous recipe " + r.Algo + " has no synchronous pattern (run it on engine.NewAsync)")
	}
	panic("algos: Pattern on invalid recipe: " + r.Algo)
}

// Codecs assembles the per-rank codec table for models of the given
// dimension. Stateful codecs get rank-derived deterministic seeds, so every
// process (or the single in-process fleet) builds identical streams.
func (r Recipe) Codecs(dim int) []engine.Codec {
	n := r.Nodes()
	out := make([]engine.Codec, n)
	// The masked codec's round mask is identical across ranks, so every
	// codec in one table (= one process) shares a single cached mask.
	var masks *compress.MaskCache
	for rank := 0; rank < n; rank++ {
		switch r.Algo {
		case "saps", "randomchoose":
			if masks == nil {
				masks = &compress.MaskCache{}
			}
			out[rank] = engine.NewMaskedShared(r.Compression, masks)
		case "psgd", "d-psgd", "ps-psgd", "fedavg", "adpsgd", "gradpush":
			out[rank] = engine.Dense{}
		case "topk-psgd":
			out[rank] = engine.NewTopK(sparseK(dim, r.C), dim, true)
		case "dcd-psgd":
			out[rank] = engine.NewTopK(sparseK(dim, r.C), dim, false)
		case "qsgd-psgd":
			out[rank] = engine.NewQSGDCodec(r.Levels, r.Seed+uint64(rank)*31)
		case "s-fedavg":
			if rank == r.ServerRank() {
				out[rank] = engine.Dense{} // dense model downlink
			} else {
				out[rank] = engine.NewRandomK(sparseK(dim, r.C), r.Seed+uint64(rank)*2654435761)
			}
		default:
			panic("algos: Codecs on invalid recipe: " + r.Algo)
		}
	}
	return out
}

// NewNode builds rank's engine.Node. model must come from the shared
// identically-seeded factory; shard is the rank's data shard (ignored for
// the hub server rank, which owns the global model instead and may pass
// nil). mirror, when non-nil on a hub server rank, receives the updated
// global parameters each round (the in-process harness evaluates on a worker
// model; TCP deployments pass nil).
func (r Recipe) NewNode(rank int, model *nn.Model, shard *dataset.Dataset, mirror *nn.Model) engine.Node {
	if r.Hub() && rank == r.ServerRank() {
		switch r.Algo {
		case "ps-psgd":
			return &psServerNode{serverModel: serverModel{model}, mirror: mirror, lr: r.LR}
		case "fedavg":
			return &fedServerNode{serverModel: serverModel{model}, mirror: mirror}
		case "s-fedavg":
			return &fedServerNode{serverModel: serverModel{model}, mirror: mirror, counted: true}
		}
	}
	// The rank's minibatch stream: the SAPS family strides its per-rank seeds
	// by one prime, the other recipes by another, and trajectories.golden
	// pins both.
	stride := uint64(104729)
	if r.Pairwise() {
		stride = 7919
	}
	t := core.NewTrainer(model, shard, r.Batch, r.LR, r.Seed+uint64(rank)*stride)
	switch r.Algo {
	case "saps", "randomchoose":
		return engine.NewMaskedGossipNode(core.NewWorker(t, r.Compression, r.localSteps()))
	case "psgd", "topk-psgd", "qsgd-psgd":
		return &gradAvgNode{Trainer: t, lr: r.LR, n: r.Workers}
	case "d-psgd":
		return &neighborMixNode{Trainer: t, lr: r.LR, row: metropolisRow(r.adjacency(), rank)}
	case "dcd-psgd":
		return newDCDNode(t, r.LR, metropolisRow(r.adjacency(), rank))
	case "ps-psgd":
		return &psWorkerNode{Trainer: t}
	case "fedavg":
		return &fedWorkerNode{Trainer: t, localSteps: r.localSteps()}
	case "s-fedavg":
		return &fedWorkerNode{Trainer: t, localSteps: r.localSteps(), delta: true}
	case "adpsgd":
		return &adpsgdNode{t: t, localSteps: r.localSteps()}
	case "gradpush":
		return newGradPushNode(t, r.LR, r.localSteps())
	}
	panic("algos: NewNode on invalid recipe: " + r.Algo)
}

// Planner assembles the coordinator-side planner. bw and gcfg matter only
// for saps (Algorithm 3's bandwidth-aware matching); randomchoose draws a
// uniformly random matching, static algorithms plan trivial rounds and
// fedavg samples its participation fraction.
func (r Recipe) Planner(bw *netsim.Bandwidth, gcfg gossip.Config) engine.Planner {
	switch r.Algo {
	case "saps":
		return r.coordinator(bw, gcfg)
	case "randomchoose":
		return NewRandomPlanner(r.Workers, r.Seed)
	case "fedavg", "s-fedavg":
		k := int(r.Fraction * float64(r.Workers))
		if k < 1 {
			k = 1
		}
		return &fractionPlanner{
			n:      r.Workers,
			server: r.ServerRank(),
			k:      k,
			rnd:    rng.New(r.Seed).Derive(0xfeda),
		}
	default:
		return engine.PlannerFunc(func(t int) core.RoundPlan { return core.RoundPlan{Round: t} })
	}
}

// coordinator is Algorithm 3's planner over bw: an Adaptive recipe's.
func (r Recipe) coordinator(bw *netsim.Bandwidth, gcfg gossip.Config) *core.Coordinator {
	return core.NewCoordinator(bw, core.Config{
		Workers: r.Workers, Compression: r.Compression, LR: r.LR, Batch: r.Batch,
		LocalSteps: r.localSteps(), Gossip: gcfg, Seed: r.Seed,
	})
}

// fractionPlanner draws max(1, fraction·n) distinct workers per round; the
// server is always active.
type fractionPlanner struct {
	n      int
	server int
	k      int
	rnd    *rng.Source
}

// Plan implements engine.Planner.
func (p *fractionPlanner) Plan(t int) core.RoundPlan {
	active := make([]bool, p.n+1)
	active[p.server] = true
	perm := p.rnd.Perm(p.n)
	for _, i := range perm[:p.k] {
		active[i] = true
	}
	return core.RoundPlan{Round: t, Active: active}
}
