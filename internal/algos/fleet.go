// Package algos implements the seven training algorithms the paper
// evaluates — SAPS-PSGD and its six comparators (PSGD all-reduce,
// TopK-PSGD, FedAvg, S-FedAvg, D-PSGD, DCD-PSGD) plus the QSGD and
// RandomChoose ablations — behind a common Algorithm interface that the
// scenario layer's round loop drives. Every algorithm is one Recipe, named
// by its Algo string alone — the Recipe's methods are the only code that
// branches on it — and a thin Planner + Pattern + Codec composition over the
// internal/engine round loop, so the same definitions run in-process,
// against a simulated-bandwidth ledger, and over TCP; all wire traffic is
// measured from the bytes the codecs actually encode, never from analytic
// formulas.
package algos

import (
	"fmt"

	"sapspsgd/internal/dataset"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
)

// Algorithm is one distributed training scheme, driven round by round.
// Implementations are not safe for concurrent use.
type Algorithm interface {
	// Step executes one synchronous communication round: local compute for
	// every worker plus all model/gradient exchanges, recorded in the
	// ledger (a *netsim.Ledger for bandwidth-accounted simulation or an
	// engine.CountingLedger for pure byte totals). It returns the mean
	// local training loss.
	Step(round int, led engine.Ledger) float64
	// Models returns the live models whose parameter average is the
	// algorithm's current global model (a single server model for
	// centralized schemes).
	Models() []*nn.Model
}

// FleetConfig is the shared construction recipe for the decentralized
// algorithms: n workers with identical initial parameters and per-worker
// data shards.
type FleetConfig struct {
	N int
	// Factory draws the initial model x₀. It is called once per fleet:
	// every other rank, and a hub's server, starts from a clone of its
	// model (nn.Model.Clone).
	Factory func() *nn.Model
	Shards  []*dataset.Dataset
	LR      float64
	Batch   int
	Seed    uint64
	// RuntimeShards is the engine's shard count (see engine.Options.Shards):
	// ranks are partitioned into this many serially-executed shards running
	// concurrently, with bit-identical trajectories at any shard count.
	// 0 = one shard per CPU.
	RuntimeShards int
}

func (c FleetConfig) validate() {
	if c.N < 2 {
		panic(fmt.Sprintf("algos: fleet of %d", c.N))
	}
	if len(c.Shards) != c.N {
		panic(fmt.Sprintf("algos: %d shards for %d workers", len(c.Shards), c.N))
	}
	if c.Factory == nil {
		panic("algos: nil model factory")
	}
	if c.LR <= 0 || c.Batch < 1 {
		panic("algos: bad LR/batch")
	}
}

// Fleet is the identically initialized models of one run; every node
// builds its own loader and optimizer over its model and shard.
type Fleet struct {
	N      int
	Models []*nn.Model
	Dim    int
}

// NewFleet builds the models: rank 0's is the factory's one draw, and every
// other rank's is its clone, so X₀ is identical across workers (the paper's
// initial-consensus condition) and no two ranks share storage.
func NewFleet(cfg FleetConfig) *Fleet {
	cfg.validate()
	x0 := cfg.Factory()
	f := &Fleet{N: cfg.N, Models: make([]*nn.Model, cfg.N), Dim: x0.ParamCount()}
	f.Models[0] = x0
	for i := 1; i < cfg.N; i++ {
		f.Models[i] = x0.Clone()
	}
	return f
}

// InProc is the package's one synchronous in-process Algorithm: an engine
// assembled from a Recipe (nodes, per-rank codecs, pattern) and a planner,
// stepped through engine.Driver. Per-round ledger charges come from the wire
// bytes the codecs actually produced. The baselines and the SAPS family
// differ only in the recipe and the planner; a planner-only run
// (NewPlannerOnly) is the chassis with no fleet under it.
type InProc struct {
	// step is the one engine.Driver round: eng.Step, or — for a planner-only
	// run, which has no fleet and so no engine (eng is nil) — a bare driver's
	// Round over the control with no nodes.
	step   func(t int, led engine.Ledger) (engine.RoundStats, error)
	eng    *engine.Engine
	models []*nn.Model
	server int       // hub server rank, -1 for serverless algorithms
	links  []float64 // server↔worker bandwidth (MB/s), hub only
}

// New assembles a synchronous recipe's in-process fleet under p, the run's
// coordinator side — the package's one engine.New site. p's recipe fixes the
// fleet's size, LR, batch and seed; fc gives the factory and shards. A hub
// server sits at each worker's best link (the paper's "choosing the server
// that has the maximum bandwidth"), starts from a clone of the fleet's x₀,
// and worker 0's model is the evaluation mirror.
func New(fc FleetConfig, p *RoundPlanner) *InProc {
	r, bw := p.recipe, p.bw
	fc.N, fc.LR, fc.Batch, fc.Seed = r.Workers, r.LR, r.Batch, r.Seed
	f := NewFleet(fc)
	total := r.Nodes()
	nodes := make([]engine.Node, total)
	for i := 0; i < f.N; i++ {
		nodes[i] = r.NewNode(i, f.Models[i], fc.Shards[i], nil)
	}
	a := &InProc{models: f.Models, server: r.ServerRank()}
	if a.server >= 0 {
		nodes[a.server] = r.NewNode(a.server, f.Models[0].Clone(), nil, f.Models[0])
		// The global model lives on the server; evaluation uses worker 0's
		// mirror because only worker models accumulate normalization
		// statistics.
		a.models = f.Models[:1]
		a.links = serverLinks(bw)
	}
	codecs := r.Codecs(f.Dim)
	// One round mask per fleet, not one per rank and one more per codec.
	engine.ShareMasks(nodes, codecs)
	a.eng = engine.New(engine.Options{
		Nodes:   nodes,
		Codecs:  codecs,
		Pattern: r.Pattern(),
		Planner: p,
		Shards:  fc.RuntimeShards,
	})
	a.step = a.eng.Step
	return a
}

// recipe is r with fc's Workers, LR, Batch and Seed.
func (fc FleetConfig) recipe(r Recipe) Recipe {
	r.Workers, r.LR, r.Batch, r.Seed = fc.N, fc.LR, fc.Batch, fc.Seed
	return r
}

// newOver is New for fc.recipe(r) under the membership m. It panics on an
// invalid recipe or membership.
func newOver(fc FleetConfig, r Recipe, bw *netsim.Bandwidth, gcfg gossip.Config, m Membership) *InProc {
	p, err := NewRoundPlanner(fc.recipe(r), bw, gcfg, m, 0)
	if err != nil {
		panic(err)
	}
	return New(fc, p)
}

// Models implements Algorithm.
func (a *InProc) Models() []*nn.Model { return a.models }

// Close releases the engine's executors (also reclaimed automatically when
// the algorithm becomes unreachable).
func (a *InProc) Close() {
	if a.eng != nil {
		a.eng.Close()
	}
}

// Step implements Algorithm: one round of the recipe's pattern — for the
// saps recipe, Algorithm 1 (coordinator) + Algorithm 2 (workers).
func (a *InProc) Step(round int, led engine.Ledger) float64 { return a.Round(round, led).Loss }

// Round is Step with the whole of the round's engine.RoundStats: its plan,
// payload size, loss, bytes and simulated seconds.
func (a *InProc) Round(round int, led engine.Ledger) engine.RoundStats {
	if a.server >= 0 {
		led = &hubLedger{inner: led, server: a.server, links: a.links}
	}
	stats, err := a.step(round, led)
	if err != nil {
		panic(err) // the in-process transport cannot fail
	}
	return stats
}

var _ Algorithm = (*InProc)(nil)

// hubLedger maps engine pair charges involving the hub's server rank onto
// netsim's server-transfer accounting (so simulated time uses the server
// link speed and server traffic lands in ServerBytes, exactly as the paper's
// centralized baselines are modelled). Non-netsim ledgers keep the plain
// pair charge — the server is just one more rank to a byte counter.
type hubLedger struct {
	inner  engine.Ledger
	server int
	links  []float64
}

// Exchange implements engine.Ledger.
func (l *hubLedger) Exchange(i, j int, sendBytes, recvBytes int64) {
	ns, ok := l.inner.(*netsim.Ledger)
	if !ok || (i != l.server && j != l.server) {
		l.inner.Exchange(i, j, sendBytes, recvBytes)
		return
	}
	if i == l.server {
		// j is the worker: it uploads recvBytes and downloads sendBytes.
		ns.ServerTransfer(j, recvBytes, sendBytes, l.link(j))
		return
	}
	ns.ServerTransfer(i, sendBytes, recvBytes, l.link(i))
}

func (l *hubLedger) link(worker int) float64 {
	if worker < len(l.links) {
		return l.links[worker]
	}
	return 0
}

// EndRound implements engine.Ledger.
func (l *hubLedger) EndRound() float64 { return l.inner.EndRound() }

// serverLinks gives each worker its best available link speed, modeling a
// server placed at the highest-bandwidth location (the paper's optimistic
// placement).
func serverLinks(bw *netsim.Bandwidth) []float64 {
	out := make([]float64, bw.N)
	bw.ForEachEdge(0, func(u, v int, w float64) {
		if w > out[u] {
			out[u] = w
		}
		if w > out[v] {
			out[v] = w
		}
	})
	return out
}
