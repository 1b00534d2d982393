package engine

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine/memtransport"
	"sapspsgd/internal/obs"
)

// Options configures an in-process Engine.
type Options struct {
	// Nodes are the participants, indexed by rank (trainers plus, for hub
	// patterns, the server as the last rank).
	Nodes []Node
	// Codecs is the per-rank codec table: Codecs[r] encodes rank r's
	// outbound payloads, and every other rank decodes r's payloads with
	// it. Must be the same length as Nodes. Stateful codecs (error
	// feedback, RNG) must be distinct instances per rank.
	Codecs []Codec
	// Pattern is the round's communication shape (nil defaults to the
	// pairwise matched-gossip pattern of Algorithm 1).
	Pattern Pattern

	// Planner produces the per-round control message (Algorithm 1/3).
	Planner Planner
	// Transport carries the payloads between ranks (nil defaults to an
	// in-process hub over the node count).
	Transport Transport

	// Shards is the number of executor goroutines: ranks are partitioned
	// into Shards contiguous shards, each executed serially by one
	// long-lived goroutine, with the round's phases separated by barriers
	// (see Pattern). Shards == 1 is the fully serial reference execution;
	// any other count produces bit-identical trajectories and byte-identical
	// ledgers. 0 means one shard per CPU (GOMAXPROCS); counts above the
	// number of ranks are clamped to it.
	Shards int
}

// Engine runs the canonical round loop over an in-process fleet on the
// sharded phased runtime: one executor goroutine per shard of ranks, spawned
// once and reused every round, running the pattern's phases with barriers in
// between (see DESIGN.md §2). Engine implements Control for its own Driver.
//
// Close releases the executors; a finalizer also releases them when an
// un-Closed Engine becomes unreachable, so dropping an Engine on the floor
// does not leak goroutines.
type Engine struct {
	nodes   []Node
	codecs  []Codec
	pattern Pattern
	driver  Driver
	sharded *shardRunner
	stop    sync.Once // closes the executors' command channels exactly once
	closed  bool
}

// New builds the engine and spawns its shard executors.
func New(opts Options) *Engine {
	nodes, codecs := opts.Nodes, opts.Codecs
	n := len(nodes)
	if n < 1 {
		panic("engine: no nodes")
	}
	if len(codecs) != n {
		panic(fmt.Sprintf("engine: %d codecs for %d nodes", len(codecs), n))
	}
	if opts.Planner == nil {
		panic("engine: nil planner")
	}
	pat := opts.Pattern
	if pat == nil {
		pat = Pairwise{}
	}
	tr := opts.Transport
	if tr == nil {
		tr = memtransport.NewHub(n)
	}
	e := &Engine{
		nodes:   nodes,
		codecs:  codecs,
		pattern: pat,
	}
	e.driver = Driver{Planner: opts.Planner, Control: e, Metrics: obs.Current().EngineM()}
	e.sharded = newShardRunner(nodes, codecs, pat, tr, opts.Shards)
	// The executor goroutines deliberately do not reference e, so an
	// abandoned Engine is collectable; the finalizer then closes their
	// command channels.
	runtime.SetFinalizer(e, (*Engine).Close)
	return e
}

// RunRound implements Control: run the validated plan's phases across the
// shards and wait for every rank to finish the round.
func (e *Engine) RunRound(plan core.RoundPlan) (ControlReport, error) {
	if e.closed {
		return ControlReport{}, fmt.Errorf("engine: RunRound after Close")
	}
	if err := e.pattern.Validate(plan, len(e.nodes)); err != nil {
		return ControlReport{}, err
	}
	return e.sharded.runRound(plan)
}

// buildReport folds the rank-indexed node reports into the round's control
// report: rank-ordered flow aggregation, loss mean over trained nodes, and
// the largest payload — one of the two deterministic commit points (the other
// is the Driver's rank-ordered ledger charge). The report's Pairs alias agg's
// pooled storage and stay valid until the runtime's next round.
func buildReport(agg *flowAgg, reports []NodeReport) ControlReport {
	rep := ControlReport{Pairs: agg.aggregate(reports)}
	sum, k := 0.0, 0
	for _, nr := range reports {
		if nr.PayloadLen > rep.PayloadLen {
			rep.PayloadLen = nr.PayloadLen
		}
		if nr.Trained && !math.IsNaN(nr.Loss) {
			sum += nr.Loss
			k++
		}
	}
	if k > 0 {
		rep.MeanLoss = sum / float64(k)
	}
	return rep
}

// Step runs one full round — plan, execute, account — against the ledger.
func (e *Engine) Step(t int, led Ledger) (RoundStats, error) {
	return e.driver.Round(t, led)
}

// Nodes exposes the rank-indexed participants.
func (e *Engine) Nodes() []Node { return e.nodes }

// Close shuts down the shard executors. The engine must not be stepped after
// Close. Close is idempotent.
func (e *Engine) Close() {
	e.closed = true
	e.stop.Do(func() {
		// A pending finalizer would keep the fleet alive through one more
		// collection after the caller dropped it.
		runtime.SetFinalizer(e, nil)
		for _, c := range e.sharded.cmds {
			close(c)
		}
	})
}
