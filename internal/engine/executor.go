package engine

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine/memtransport"
	"sapspsgd/internal/obs"
)

// Driver is Algorithm 1's round loop, backend- and algorithm-agnostic: plan
// the round (Algorithm 3 via the Planner), run it on every node through the
// Control barrier, then account the round's traffic in the Ledger — one
// bidirectional charge per communicating pair, sized by the wire bytes the
// nodes' codecs actually produced.
type Driver struct {
	Planner Planner
	Control Control
	// Metrics is the observability sink for round counters and timings.
	// The zero value is a fully disabled sink.
	Metrics obs.EngineMetrics
}

// NewDriver is how the product builds a Driver — the sharded engine, the TCP
// coordinator and a planner-only run alike — so every executor counts rounds,
// wire bytes and simulated seconds the same way. It captures
// obs.Current().EngineM() once; hot rounds never reload the global.
func NewDriver(p Planner, c Control) *Driver {
	return &Driver{Planner: p, Control: c, Metrics: obs.Current().EngineM()}
}

// Round executes round t against the ledger and returns its stats.
func (d *Driver) Round(t int, led Ledger) (RoundStats, error) {
	var start time.Time
	if d.Metrics.Enabled() {
		start = time.Now()
	}
	plan := d.Planner.Plan(t)
	rep, err := d.Control.RunRound(plan)
	if err != nil {
		return RoundStats{}, err
	}
	var total int64
	for _, p := range rep.Pairs {
		led.Exchange(p.I, p.J, p.IToJ, p.JToI)
		total += p.IToJ + p.JToI
	}
	secs := led.EndRound()
	d.Metrics.RoundsTotal.Inc()
	// The wire counter follows the repo's fleet-traffic convention
	// (Result.TotalBytes, BENCH.json): every payload counted at both its
	// sender and its receiver.
	d.Metrics.WireBytesTotal.Add(2 * total)
	d.Metrics.SimSecondsTotal.Add(secs)
	if d.Metrics.Enabled() {
		d.Metrics.RoundSeconds.Observe(time.Since(start).Seconds())
	}
	return RoundStats{
		Plan:        plan,
		PayloadLen:  rep.PayloadLen,
		Loss:        rep.MeanLoss,
		Bytes:       total,
		CommSeconds: secs,
	}, nil
}

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
	// Pattern is the round's communication shape.
	Pattern Pattern

	// Planner produces the per-round control message (Algorithm 1/3).
	Planner Planner

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
	if opts.Planner == nil || opts.Pattern == nil {
		panic("engine: nil planner or pattern")
	}
	e := &Engine{
		nodes:   nodes,
		codecs:  codecs,
		pattern: opts.Pattern,
	}
	// By value: a heap Driver pointing back at e would put the finalizer's
	// object in a cycle through another block, and it would never run.
	e.driver = *NewDriver(opts.Planner, e)
	e.sharded = newShardRunner(nodes, codecs, opts.Pattern, memtransport.NewHub(n), opts.Shards)
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

// shardRunner is the sharded phased runtime: ranks are partitioned into
// contiguous shards, each served by one long-lived executor goroutine. A
// round executes as PhaseCount barrier-separated phases; within a phase
// every shard runs its ranks' RunPhase slices serially in ascending rank
// order while shards proceed concurrently. Determinism does not depend on
// the shard count:
//
//   - each rank's floating-point work is confined to its own state (or its
//     own slice of the shared all-gather aggregate) and runs in the phase
//     program's order (the Pattern contract), so trajectories are
//     bit-identical;
//   - cross-rank data moves only through the transport's keyed FIFOs, and
//     every Recv consumes a deposit from an earlier phase (the phase barrier
//     is the happens-before edge);
//   - reports are collected rank-indexed and the Driver charges the ledger
//     from the rank-ordered pair aggregation, so traffic accounting is
//     byte-identical regardless of completion order.
//
// Synchronization is minimized three ways (DESIGN.md, performance chapter):
// adjacent phases with no cross-rank dependency fuse into one dispatch (per
// the pattern's PhaseDeps — and with a single shard every boundary fuses,
// because one executor already runs the phases in the barriered order);
// phases naming a participant interval (PhaseParticipants) are dispatched
// only to the shards that intersect it; and each shard hands its ranks'
// reports over in one batch as part of its final command of the round.
// Per-round scratch (phase states, contexts, reports) is pooled, so a
// steady-state round performs no heap allocations.
type shardRunner struct {
	n       int
	pattern Pattern
	nodes   []Node
	codecs  []Codec
	tr      Transport

	cmds []chan shardCmd // one per shard
	done chan error      // one message per shard per dispatched command

	// plan is the round's control message, written by runRound before the
	// first dispatch (the command-channel send is the happens-before edge
	// that publishes it to the shard goroutines).
	plan core.RoundPlan

	// Per-round scratch, written only between barriers or by the owning
	// shard's ranks.
	states  []PhaseState
	ctxs    []RoundContext
	active  []bool
	reports []NodeReport
	sum     gatherSum // the all-gather aggregate every rank's state points at

	// Dispatch scratch, coordinator-owned.
	deps     []bool
	runs     []phaseRun
	firstRun []int // per shard: index into runs of its first dispatch, -1 if none
	lastRun  []int // per shard: index of its last dispatch
	bounds   []int // shard i covers ranks [bounds[i], bounds[i+1])
	agg      ReportFold

	// metrics is the coordinator-side observability sink (zero value =
	// disabled), captured once at construction.
	metrics obs.EngineMetrics
}

// shardCmd is one dispatch to a shard: execute phases [lo, hi) over the
// shard's ranks. first marks the shard's first command of the round (reset
// per-rank state before executing); last marks its final one (publish the
// shard's reports after executing).
type shardCmd struct {
	lo, hi      int
	first, last bool
}

// phaseRun is a maximal fused range of phases [lo, hi) with the union of the
// phases' participant ranks [rankLo, rankHi).
type phaseRun struct {
	lo, hi         int
	rankLo, rankHi int
}

// newShardRunner spawns shards executor goroutines over the rank space.
// shards < 1 means one per CPU; the count is clamped to n.
func newShardRunner(nodes []Node, codecs []Codec, pat Pattern, tr Transport, shards int) *shardRunner {
	n := len(nodes)
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > n {
		shards = n
	}
	s := &shardRunner{
		n:        n,
		pattern:  pat,
		nodes:    nodes,
		codecs:   codecs,
		tr:       tr,
		cmds:     make([]chan shardCmd, shards),
		done:     make(chan error, shards),
		metrics:  obs.Current().EngineM(),
		states:   make([]PhaseState, n),
		ctxs:     make([]RoundContext, n),
		active:   make([]bool, n),
		reports:  make([]NodeReport, n),
		firstRun: make([]int, shards),
		lastRun:  make([]int, shards),
		bounds:   make([]int, shards+1),
	}
	for r := range s.states {
		s.states[r].sum = &s.sum
	}
	for i := range s.cmds {
		s.bounds[i] = i * n / shards
		s.cmds[i] = make(chan shardCmd)
		go s.shardLoop(i*n/shards, (i+1)*n/shards, s.cmds[i])
	}
	s.bounds[shards] = n
	return s
}

// shardLoop serves one shard's ranks command by command until the command
// channel closes. It deliberately holds no reference to the Engine, so an
// abandoned engine stays collectable.
func (s *shardRunner) shardLoop(lo, hi int, cmds <-chan shardCmd) {
	for cmd := range cmds {
		if cmd.first {
			for r := lo; r < hi; r++ {
				s.states[r].reset()
				s.ctxs[r] = RoundContext{Round: s.plan.Round, Seed: s.plan.Seed, Self: r, N: s.n, Plan: s.plan}
				s.active[r] = s.plan.Active == nil || s.plan.Active[r]
			}
		}
		var firstErr error
		for phase := cmd.lo; phase < cmd.hi; phase++ {
			for r := lo; r < hi; r++ {
				if !s.active[r] {
					continue
				}
				if err := s.pattern.RunPhase(s.ctxs[r], phase, s.nodes[r], s.codecs, s.tr, &s.states[r]); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("engine: node %d: %w", r, err)
				}
			}
		}
		if cmd.last {
			// Batched report handoff: the shard publishes all its ranks'
			// reports with its final done signal instead of the coordinator
			// walking every rank afterwards.
			for r := lo; r < hi; r++ {
				s.reports[r] = s.states[r].Rep
			}
		}
		s.done <- firstErr
	}
}

// planRuns groups the round's phases into maximal fused runs: a barrier is
// kept between adjacent phases only when the pattern declares a cross-rank
// dependency there (PhaseDeps; absent = every boundary) AND more than one
// shard exists — a single executor already runs fused phases in exactly the
// barriered order, so one shard always collapses the round into one command.
func (s *shardRunner) planRuns(plan core.RoundPlan, phases int) {
	s.deps = s.deps[:0]
	if len(s.cmds) > 1 {
		if f, ok := s.pattern.(PhaseFuser); ok {
			s.deps = f.PhaseDeps(plan, s.n, s.deps)
		} else {
			for p := 0; p < phases-1; p++ {
				s.deps = append(s.deps, true)
			}
		}
	}
	s.runs = s.runs[:0]
	lo := 0
	for p := 0; p < phases; p++ {
		if p == phases-1 || (p < len(s.deps) && s.deps[p]) {
			run := phaseRun{lo: lo, hi: p + 1, rankLo: s.n, rankHi: 0}
			for q := run.lo; q < run.hi; q++ {
				pl, ph := 0, s.n
				if pp, ok := s.pattern.(PhaseParticipants); ok {
					pl, ph = pp.PhaseRanks(plan, s.n, q)
				}
				run.rankLo = min(run.rankLo, pl)
				run.rankHi = max(run.rankHi, ph)
			}
			s.runs = append(s.runs, run)
			lo = p + 1
		}
	}
}

// runRound executes one validated plan across the shards. An error aborts
// the remaining phases and leaves the engine unusable (undelivered deposits
// may linger in the transport); in-process patterns over valid plans cannot
// fail, so this only matters for defective custom codecs or transports.
// The returned report's Pairs slice aliases pooled storage valid until the
// next runRound call — the Driver consumes it before planning the next
// round.
func (s *shardRunner) runRound(plan core.RoundPlan) (ControlReport, error) {
	phases := s.pattern.PhaseCount(plan, s.n)
	s.plan = plan
	s.planRuns(plan, phases)

	// Per-shard first/last dispatch indices; shards outside every run's
	// participant interval are never dispatched, so the coordinator zeroes
	// their ranks' reports itself.
	for i := range s.cmds {
		s.firstRun[i], s.lastRun[i] = -1, -1
		for ri, run := range s.runs {
			if run.rankLo < s.bounds[i+1] && s.bounds[i] < run.rankHi {
				if s.firstRun[i] < 0 {
					s.firstRun[i] = ri
				}
				s.lastRun[i] = ri
			}
		}
		if s.firstRun[i] < 0 {
			for r := s.bounds[i]; r < s.bounds[i+1]; r++ {
				s.reports[r] = NodeReport{}
			}
		}
	}

	for ri, run := range s.runs {
		var start time.Time
		if s.metrics.Enabled() {
			start = time.Now()
		}
		dispatched := 0
		for i, c := range s.cmds {
			if ri < s.firstRun[i] || ri > s.lastRun[i] {
				continue
			}
			c <- shardCmd{lo: run.lo, hi: run.hi, first: ri == s.firstRun[i], last: ri == s.lastRun[i]}
			dispatched++
		}
		var firstErr error
		for k := 0; k < dispatched; k++ {
			if err := <-s.done; err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			return ControlReport{}, firstErr
		}
		if s.metrics.Enabled() {
			s.metrics.PhaseSeconds.Observe(time.Since(start).Seconds())
		}
	}
	return s.agg.Fold(s.reports), nil
}

// WorkerRound executes one rank's full round: the pattern's phases run back
// to back over the transport, each Recv blocking until the peer's deposit
// arrives. It is the whole executor of a one-rank-per-process deployment
// (the TCP worker); the in-process engine runs the same phases across many
// ranks with barriers in between. An all-gather's lone rank sums every
// coordinate itself, in the order an engine's ranks sum their slices, so it
// reaches the same bits.
//
// The transport must not retain a payload after Send returns (see
// Transport) — with no barrier between a rank's phases, the butterfly
// rewrites its chunk buffers while a by-reference receiver could still be
// reading them. st is the rank's phase scratch, reused round over round; the
// returned report aliases it and is valid until the next WorkerRound on the
// same st. codecs is the shared per-rank codec table: the node encodes with
// codecs[ctx.Self] and decodes inbound payloads with the sender's codec.
func WorkerRound(node Node, pat Pattern, codecs []Codec, tr Transport, st *PhaseState, ctx RoundContext) (NodeReport, error) {
	st.reset()
	for p, phases := 0, pat.PhaseCount(ctx.Plan, ctx.N); p < phases; p++ {
		if err := pat.RunPhase(ctx, p, node, codecs, tr, st); err != nil {
			return NodeReport{}, err
		}
	}
	return st.Rep, nil
}
