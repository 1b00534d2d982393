package transport

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/obs"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/tensor"
)

// GossipConfig aliases gossip.Config (Algorithm 3's BThres/TThres knobs).
type GossipConfig = gossip.Config

// activePlanner is a planner that can re-plan over a dynamic membership —
// the churn path of Algorithm 3. *core.Coordinator implements it; the
// coordinator uses it both for the declarative fault schedule and to
// re-plan a round after detecting an unscheduled worker loss.
type activePlanner interface {
	engine.Planner
	PlanActive(t int, active []bool) core.RoundPlan
}

// errRoundAborted reports a round attempt cancelled after a worker loss; the
// round loop re-plans and retries the same round.
type errRoundAborted struct {
	round int
	rank  int
	cause error
}

func (e *errRoundAborted) Error() string {
	return fmt.Sprintf("transport: round %d aborted after losing rank %d: %v", e.round, e.rank, e.cause)
}

// CoordinatorServer runs Algorithm 1 over TCP for a scenario spec: it
// registers the spec's node processes (its nodes trainers, plus one server
// process for hub algorithms), drives its rounds of control broadcasts,
// enforces the round barrier, and finally collects the global model.
//
// Fault tolerance (DESIGN.md §3): the coordinator detects worker
// disconnects, aborts the affected round on every survivor (who roll back to
// their round-boundary snapshots), and re-plans it over the remaining fleet
// via the churn planner path. With a faults block in the spec it also
// *injects* the schedule's crashes — killing the scheduled worker processes
// at the exact round boundaries the in-process engine would exclude them —
// and re-admits scheduled rejoiners through the Rejoin handshake, so a
// deployed fleet reproduces the simulated fault scenario bit for bit.
type CoordinatorServer struct {
	// Spec is the run — algorithm, fleet, task, rounds, environment, and the
	// faults and trace blocks that script membership and link speeds — as
	// an in-process run reads it. Run refuses, before anyone registers, a
	// spec that does not validate and one a TCP fleet cannot run: async,
	// planner_only, or with a churn model.
	Spec *scenario.Spec
	// N, Task and Gossip describe the run when Spec is nil: N trainers
	// running Task under Algorithm 3's thresholds Gossip, converted by
	// TaskSpec.Spec. They are read only then.
	N      int
	Task   TaskSpec
	Gossip GossipConfig
	// BW is the base bandwidth environment the planner uses; nil means the
	// spec's own (Spec.Env). With Measure set it is only the fallback for
	// links whose probes failed in both directions (see AssembleBandwidth).
	// The spec's jitter and trace multipliers rescale it every round.
	BW *netsim.Bandwidth
	// Measure, when true, runs a bandwidth measurement phase after
	// registration (paper §II-C footnote 3): every worker pair exchanges
	// ProbeBytes of payload, reports the achieved throughput, and the
	// assembled matrix drives the adaptive matching.
	Measure bool
	// ProbeBytes sizes the measurement payload (default 64 KiB).
	ProbeBytes int
	// Ledger, when set, receives the engine driver's per-round traffic
	// accounting (defaults to a fresh engine.CountingLedger). Pass one in to
	// read byte totals after Run. Charges are the wire bytes the workers'
	// codecs measured, reported through the round-end flows. Aborted round
	// attempts are never charged — only committed rounds reach the ledger.
	Ledger engine.Ledger
	// RejoinWait bounds how long the coordinator blocks at a round boundary
	// for a scheduled rejoiner's handshake (default 60s).
	RejoinWait time.Duration
	// Logf receives progress lines; nil silences logging.
	Logf func(format string, args ...any)

	spec      *scenario.Spec // Spec, or the conversion of N, Task and Gossip
	ln        net.Listener
	conns     []*Conn
	addrs     []string
	alive     []bool
	deadSince []int
	gen       []int // per-rank connection generation (bumped on rejoin)
	pattern   engine.Pattern
	total     int

	base engine.Planner
	ap   activePlanner
	// member is the scripted membership — the fault schedule and the
	// trace's events, the same stream the in-process engine plans over —
	// and planned its set for schedRound, computed once per round (replans
	// reuse it; nil = everyone). effectiveActive ANDs in detected liveness.
	member  *algos.MembershipStream
	planned []bool
	// env is the spec's round-environment clock over the configured or
	// measured matrix: jitter and the trace's bandwidth multipliers.
	env *netsim.RoundEnv
	// fold turns a round's worker reports into the driver's ControlReport.
	fold       engine.ReportFold
	schedRound int
	attempt    int
	addrsDirty bool

	inbox    chan connMsg
	rejoinCh chan rejoinReq
	// parked holds, per rank, the handshake of a worker that came back while
	// the fault schedule still has it absent (nil conn = none); it is
	// admitted at the boundary its window closes.
	parked []rejoinReq

	// tm is the observability sink (zero value = disabled), captured once
	// when Run starts.
	tm obs.TransportMetrics

	mu      sync.Mutex
	started bool
}

// connMsg is one message (or terminal error) from a worker connection's
// reader goroutine.
type connMsg struct {
	rank int
	gen  int
	msg  any
	err  error
}

// rejoinReq is a restarted worker's handshake, delivered by the accept
// goroutine.
type rejoinReq struct {
	conn *Conn
	msg  Rejoin
}

// Listen binds the coordinator to addr (e.g. "127.0.0.1:0") and returns the
// actual bound address.
func (s *CoordinatorServer) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: coordinator listen: %w", err)
	}
	s.ln = ln
	return ln.Addr().String(), nil
}

func (s *CoordinatorServer) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Run accepts the spec's node processes, drives the full training, and
// returns the final global model parameters (collected from the server rank
// for hub algorithms, from the lowest surviving worker otherwise). It closes
// the listener on exit.
func (s *CoordinatorServer) Run() ([]float64, error) {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return nil, fmt.Errorf("transport: coordinator already started")
	}
	s.started = true
	s.mu.Unlock()
	s.tm = obs.Current().TransportM()
	if s.ln == nil {
		return nil, fmt.Errorf("transport: Run before Listen")
	}
	defer s.ln.Close()

	s.spec = s.Spec
	if s.spec == nil {
		s.spec = s.Task.Spec(s.N, s.Gossip)
	}
	spec := s.spec
	// Everything that can be wrong with the spec fails here, before anyone
	// registers: not as a panic in a worker, and not as a fleet that
	// dwindles to nothing.
	if err := deployable(spec); err != nil {
		return nil, err
	}
	welcome, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	rec := spec.Recipe()
	s.total = rec.Nodes()
	s.pattern = rec.Pattern()
	bw := s.BW
	if bw == nil {
		bw = spec.Env()
	}
	if bw.N != spec.Nodes {
		return nil, fmt.Errorf("transport: a bandwidth environment over %d nodes for scenario %s's %d", bw.N, spec.Name, spec.Nodes)
	}
	replay, err := spec.Replay()
	if err != nil {
		return nil, err
	}
	m := spec.Membership(replay)
	// The fault schedule and the trace's events together may leave a round
	// with fewer than two workers, which neither checks alone.
	if err := m.Check(spec.Nodes, spec.Seed, spec.Rounds); err != nil {
		return nil, fmt.Errorf("transport: scenario %s: %w", spec.Name, err)
	}
	s.member, _ = m.Stream(spec.Nodes, spec.Seed)
	if s.RejoinWait <= 0 {
		s.RejoinWait = 60 * time.Second
	}
	hub := ""
	if rec.Hub() {
		hub = " + 1 parameter server"
	}
	s.logf("coordinator: scenario %s (algorithm %q) on %s, waiting for %d worker processes (%d trainers%s)",
		spec.Name, spec.Algo, s.ln.Addr(), s.total, spec.Nodes, hub)

	// Registration phase.
	for rank := 0; rank < s.total; rank++ {
		nc, err := s.ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("transport: accept worker %d: %w", rank, err)
		}
		conn := NewConn(nc)
		msg, err := conn.Recv()
		if err != nil {
			return nil, fmt.Errorf("transport: hello from worker %d: %w", rank, err)
		}
		hello, ok := msg.(Hello)
		if !ok {
			return nil, fmt.Errorf("transport: worker %d sent %T, want Hello", rank, msg)
		}
		s.conns = append(s.conns, conn)
		s.addrs = append(s.addrs, hello.ListenAddr)
		s.tm.ConnectsTotal.Inc()
		s.logf("coordinator: worker %d registered at %s", rank, hello.ListenAddr)
	}
	s.alive = make([]bool, s.total)
	s.deadSince = make([]int, s.total)
	s.gen = make([]int, s.total)
	s.parked = make([]rejoinReq, s.total)
	for i := range s.alive {
		s.alive[i] = true
	}
	defer func() {
		for rank, c := range s.conns {
			if s.alive[rank] {
				c.Close()
			}
		}
		for _, req := range s.parked {
			if req.conn != nil {
				req.conn.Close()
			}
		}
	}()
	for rank, c := range s.conns {
		if err := c.Send(Welcome{Rank: rank, N: s.total, Spec: welcome, Addrs: s.addrs}); err != nil {
			return nil, err
		}
	}

	// Optional measurement phase (direct per-connection reads: the reader
	// goroutines start afterwards).
	if s.Measure {
		measured, err := s.measure(bw)
		if err != nil {
			return nil, err
		}
		if replay != nil && measured.N != spec.Nodes {
			return nil, fmt.Errorf("transport: a %d-process measured matrix cannot replay scenario %s's %d-node trace", measured.N, spec.Name, spec.Nodes)
		}
		bw = measured
	}

	// Readers + rejoin acceptor.
	s.inbox = make(chan connMsg, 4*s.total+16)
	s.rejoinCh = make(chan rejoinReq, s.total)
	for rank := range s.conns {
		go s.readConn(rank, s.gen[rank], s.conns[rank])
	}
	go s.acceptRejoins()

	// The spec's clock wraps whatever environment we ended up with
	// (configured or measured): the planner sees the stable *Bandwidth the
	// clock rewrites in place each boundary, exactly as in process.
	s.env = spec.RoundEnv(bw, replay)

	// Round loop (Algorithm 1 lines 3–7), executed by the canonical engine
	// driver: planning, the worker barrier, and traffic accounting are the
	// same code the in-memory and simulated backends run. On an aborted
	// round the driver is re-invoked for the same t: the planner re-plans
	// over the survivors and no ledger charge happens for the lost attempt.
	s.base = spec.Planner(s.env.Current())
	s.ap, _ = s.base.(activePlanner)
	led := s.Ledger
	if led == nil {
		led = &engine.CountingLedger{}
	}
	drv := engine.NewDriver(engine.PlannerFunc(s.plan), (*tcpControl)(s))
	for t := 0; t < spec.Rounds; t++ {
		if err := s.beginRound(t); err != nil {
			return nil, err
		}
		for {
			prevAlive := s.aliveCount()
			stats, err := drv.Round(t, led)
			if err == nil {
				if (t+1)%10 == 0 || t == spec.Rounds-1 {
					s.logf("coordinator: round %d/%d mean loss %.4f (%d wire bytes)",
						t+1, spec.Rounds, stats.Loss, stats.Bytes)
				}
				break
			}
			var ab *errRoundAborted
			if !errors.As(err, &ab) {
				return nil, err
			}
			if s.aliveCount() == prevAlive {
				// The abort identified no new casualty: retrying would
				// re-plan the identical round into the identical failure.
				return nil, fmt.Errorf("transport: round %d failed without a worker loss to exclude: %w", t, ab)
			}
			s.logf("coordinator: %v; re-planning over %d survivors", ab, s.aliveCount())
			if err := s.canContinue(); err != nil {
				return nil, err
			}
		}
	}

	collectRank := s.collectRank(rec)
	if collectRank < 0 {
		return nil, fmt.Errorf("transport: no surviving worker to collect the model from")
	}
	return s.collect(collectRank)
}

// deployable refuses a spec a TCP fleet cannot run: one that does not
// validate or build its model, and the kinds of run the coordinator does not
// drive — the event-driven async engine, the coordinator side alone, and
// the random churn process.
func deployable(spec *scenario.Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	switch {
	case spec.Async != nil:
		return fmt.Errorf("transport: scenario %s is asynchronous (algo %s); a TCP fleet runs synchronous rounds", spec.Name, spec.Algo)
	case spec.PlannerOnly:
		return fmt.Errorf("transport: scenario %s is planner_only; it has no workers to deploy", spec.Name)
	case spec.Churn != nil:
		return fmt.Errorf("transport: scenario %s has a churn model, which a TCP fleet does not run (script the membership with faults or trace events)", spec.Name)
	}
	_, err := spec.NewModel()
	return err
}

// measure runs the bandwidth probe phase and assembles the matrix; fallback
// supplies the links whose probes failed both ways.
func (s *CoordinatorServer) measure(fallback *netsim.Bandwidth) (*netsim.Bandwidth, error) {
	probe := s.ProbeBytes
	if probe <= 0 {
		probe = 64 << 10
	}
	if probe > maxProbeBytes {
		return nil, fmt.Errorf("transport: probes of %d bytes exceed the %d-byte frame ceiling", probe, maxProbeBytes)
	}
	for rank, c := range s.conns {
		if err := c.Send(MeasureRequest{ProbeBytes: probe}); err != nil {
			return nil, fmt.Errorf("transport: measure request to %d: %w", rank, err)
		}
	}
	reports := make([]MeasureReport, 0, s.total)
	for rank, c := range s.conns {
		msg, err := c.Recv()
		if err != nil {
			return nil, fmt.Errorf("transport: measure report from %d: %w", rank, err)
		}
		rep, ok := msg.(MeasureReport)
		if !ok {
			return nil, fmt.Errorf("transport: measure phase got %T from %d", msg, rank)
		}
		reports = append(reports, rep)
	}
	measured, err := AssembleBandwidth(s.total, reports, fallback)
	if err != nil {
		return nil, err
	}
	s.logf("coordinator: measured bandwidth matrix assembled (mean %.2f MB/s)", measured.MeanBandwidth())
	return measured, nil
}

// readConn pumps one worker connection into the inbox until it dies.
func (s *CoordinatorServer) readConn(rank, gen int, c *Conn) {
	for {
		msg, err := c.Recv()
		s.inbox <- connMsg{rank: rank, gen: gen, msg: msg, err: err}
		if err != nil {
			return
		}
	}
}

// acceptRejoins forwards Rejoin handshakes from restarted workers; anything
// else on a fresh connection is rejected. It exits when the listener closes.
func (s *CoordinatorServer) acceptRejoins() {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		go func() {
			conn := NewConn(nc)
			msg, err := conn.Recv()
			if err != nil {
				conn.Close()
				return
			}
			rj, ok := msg.(Rejoin)
			if !ok {
				conn.Send(RejoinNack{Reason: fmt.Sprintf("expected Rejoin, got %T (registration is closed)", msg)})
				conn.Close()
				return
			}
			s.rejoinCh <- rejoinReq{conn: conn, msg: rj}
		}()
	}
}

// beginRound prepares round t: advance the fault schedule, inject scheduled
// crashes, admit (and, for scheduled rejoiners, wait for) returning workers,
// and reset the attempt counter.
func (s *CoordinatorServer) beginRound(t int) error {
	s.schedRound = t
	s.env.Tick(t)
	var err error
	if s.planned, err = s.member.Step(t); err != nil {
		return err
	}
	// Fault injection: kill workers whose scheduled-death window opens at
	// this boundary. Only the fault schedule kills; a worker the trace
	// scripts away stays connected.
	sched := s.member.Scheduled()
	for rank := range sched {
		if !sched[rank] && s.alive[rank] {
			s.logf("coordinator: fault injection: crashing rank %d at round %d", rank, t)
			s.tm.CrashInjectionsTotal.Inc()
			if err := s.conns[rank].Send(CrashMsg{Round: t}); err != nil {
				s.logf("coordinator: crash directive to %d: %v (already gone)", rank, err)
			}
			s.markDead(rank, t)
		}
	}
	// Opportunistically take any restarted worker's handshake, then block
	// for the schedule's rejoiners.
	for {
		select {
		case req := <-s.rejoinCh:
			s.takeRejoin(req, t)
			continue
		default:
		}
		break
	}
	for rank := range sched {
		if !sched[rank] || s.alive[rank] {
			continue
		}
		if err := s.awaitRejoin(rank, t); err != nil {
			return err
		}
	}
	s.attempt = 0
	return s.canContinue()
}

// takeRejoin handles one rejoin handshake at boundary t. A worker the fault
// schedule still has absent came back early: admitted now it would be crashed
// again at the next boundary, with its snapshot then a round behind the
// recorded death and its next handshake rejected as stale — so it is parked
// until awaitRejoin admits it at the boundary its window closes. Anyone else
// is admitted or rejected on the spot.
func (s *CoordinatorServer) takeRejoin(req rejoinReq, t int) {
	sched := s.member.Scheduled()
	if r := req.msg.Rank; r >= 0 && r < len(sched) && !sched[r] {
		if old := s.parked[r].conn; old != nil {
			old.Close() // superseded by a newer incarnation
		}
		s.parked[r] = req
		s.logf("coordinator: rank %d is back before its scheduled rejoin; holding it out at round %d", r, t)
		return
	}
	s.admitRejoin(req, t)
}

// awaitRejoin blocks until the scheduled rejoiner for rank completes its
// handshake — the one parked since it came back early, if there is one (other
// rejoiners arriving meanwhile are taken too).
func (s *CoordinatorServer) awaitRejoin(rank, t int) error {
	if req := s.parked[rank]; req.conn != nil {
		s.parked[rank] = rejoinReq{}
		s.admitRejoin(req, t)
	}
	if s.alive[rank] {
		return nil
	}
	s.logf("coordinator: waiting for rank %d to rejoin at round %d", rank, t)
	deadline := time.After(s.RejoinWait)
	for !s.alive[rank] {
		select {
		case req := <-s.rejoinCh:
			s.takeRejoin(req, t)
		case <-deadline:
			return fmt.Errorf("transport: rank %d did not rejoin within %v of round %d (restart it with -resume)",
				rank, s.RejoinWait, t)
		}
	}
	return nil
}

// admitRejoin validates a rejoin handshake and, if sound, re-installs the
// worker: new connection, new peer address, fresh reader goroutine.
func (s *CoordinatorServer) admitRejoin(req rejoinReq, t int) {
	rj := req.msg
	reject := func(reason string) {
		s.logf("coordinator: rejecting rejoin of rank %d: %s", rj.Rank, reason)
		req.conn.Send(RejoinNack{Reason: reason})
		req.conn.Close()
	}
	switch {
	case rj.Rank < 0 || rj.Rank >= s.total:
		reject(fmt.Sprintf("rank %d out of range (fleet has %d ranks)", rj.Rank, s.total))
		return
	case s.alive[rj.Rank]:
		reject(fmt.Sprintf("rank %d is still alive", rj.Rank))
		return
	case rj.NextRound != s.deadSince[rj.Rank]:
		reject(fmt.Sprintf("snapshot resumes at round %d but rank %d died at round %d boundary — the worker lost its last committed snapshot",
			rj.NextRound, rj.Rank, s.deadSince[rj.Rank]))
		return
	}
	s.conns[rj.Rank] = req.conn
	s.addrs[rj.Rank] = rj.ListenAddr
	s.alive[rj.Rank] = true
	s.gen[rj.Rank]++
	s.addrsDirty = true
	if err := req.conn.Send(RejoinAck{Round: t, N: s.total, Addrs: append([]string(nil), s.addrs...)}); err != nil {
		s.logf("coordinator: rejoin ack to %d failed: %v", rj.Rank, err)
		s.markDead(rj.Rank, t)
		return
	}
	go s.readConn(rj.Rank, s.gen[rj.Rank], req.conn)
	s.tm.RejoinsTotal.Inc()
	s.tm.ConnectsTotal.Inc()
	s.logf("coordinator: rank %d rejoined at round %d (peer addr %s)", rj.Rank, t, rj.ListenAddr)
}

// markDead records a lost worker and closes its connection.
func (s *CoordinatorServer) markDead(rank, round int) {
	if !s.alive[rank] {
		return
	}
	s.alive[rank] = false
	s.deadSince[rank] = round
	s.conns[rank].Close()
}

func (s *CoordinatorServer) aliveCount() int {
	n := 0
	for _, a := range s.alive {
		if a {
			n++
		}
	}
	return n
}

// canContinue checks the fleet can still execute rounds after losses: at
// least two effective participants, and a planner able to re-plan over a
// partial fleet when anyone is gone.
func (s *CoordinatorServer) canContinue() error {
	eff := s.effectiveActive()
	if eff == nil {
		return nil
	}
	if s.ap == nil {
		return fmt.Errorf("transport: lost a worker but algorithm %q cannot re-plan over a partial fleet", s.spec.Algo)
	}
	n := 0
	for _, a := range eff {
		if a {
			n++
		}
	}
	if n < 2 {
		return fmt.Errorf("transport: only %d effective workers remain", n)
	}
	return nil
}

// effectiveActive is the round's scripted membership ANDed with detected
// liveness. nil means "everyone" — the fault-free, trace-free, loss-free
// fast path that keeps the planner on the same stream as a plain run. (With
// a fault schedule or membership replay on, the slice is non-nil every round
// even when the whole fleet is present, matching the in-process membership
// planner's unconditional PlanActive stream.)
func (s *CoordinatorServer) effectiveActive() []bool {
	if s.planned == nil && s.aliveCount() == s.total {
		return nil
	}
	eff := append([]bool(nil), s.alive...)
	for r, on := range s.planned {
		eff[r] = eff[r] && on
	}
	return eff
}

// plan implements the driver's planner: the schedule ∧ liveness membership
// through the churn planner path, or the base planner when everyone is
// present. Re-invoked on a re-planned round with the same t (the schedule
// part is cached; only liveness changed).
func (s *CoordinatorServer) plan(t int) core.RoundPlan {
	if t != s.schedRound {
		panic(fmt.Sprintf("transport: plan(%d) outside round %d", t, s.schedRound))
	}
	eff := s.effectiveActive()
	if eff == nil {
		return s.base.Plan(t)
	}
	return s.ap.PlanActive(t, eff)
}

// collectRank picks the rank holding the global model: the server for hub
// algorithms (which must have survived), else the lowest surviving trainer.
func (s *CoordinatorServer) collectRank(rec algos.Recipe) int {
	if r := rec.ServerRank(); r >= 0 {
		if s.alive[r] {
			return r
		}
		return -1
	}
	for r := 0; r < s.total; r++ {
		if s.alive[r] {
			return r
		}
	}
	return -1
}

// tcpControl implements engine.Control over the coordinator's worker
// connections: broadcast the round's control message, then hold the barrier
// until every *active* worker reports back with its measured flows. A
// worker loss mid-round triggers the abort protocol: every survivor rolls
// back to its round-boundary snapshot and acknowledges, the lost rank is
// marked dead, and errRoundAborted tells the round loop to re-plan.
type tcpControl CoordinatorServer

// planActive reports whether rank participates in the plan.
func planActive(plan core.RoundPlan, rank int) bool {
	return plan.Active == nil || (rank < len(plan.Active) && plan.Active[rank])
}

// RunRound implements engine.Control (one attempt).
func (s *tcpControl) RunRound(plan core.RoundPlan) (engine.ControlReport, error) {
	if err := s.pattern.Validate(plan, s.total); err != nil {
		return engine.ControlReport{}, err
	}
	t := plan.Round
	attempt := s.attempt
	s.attempt++
	// The dirty flag clears only once the round succeeds: an aborted
	// attempt may have left some survivors un-notified, so every retry
	// carries the fresh book again.
	var addrs []string
	if s.addrsDirty {
		addrs = append([]string(nil), s.addrs...)
	}

	// Broadcast to every living worker (inactive ones stay silent but need
	// the round marker, address updates, and a potential later Abort).
	for rank := 0; rank < s.total; rank++ {
		if !s.alive[rank] {
			continue
		}
		peer := -1
		if rank < len(plan.Peer) {
			peer = plan.Peer[rank]
		}
		msg := RoundMsg{Round: t, Seed: plan.Seed, Peer: peer, Active: plan.Active, Attempt: attempt, Addrs: addrs}
		if err := s.conns[rank].Send(msg); err != nil {
			(*CoordinatorServer)(s).markDead(rank, t)
			if planActive(plan, rank) {
				return engine.ControlReport{}, s.abort(plan, rank, fmt.Errorf("notify failed: %w", err))
			}
		}
	}

	// Collect reports from the active set.
	reports := make([]engine.NodeReport, s.total)
	seen := make([]bool, s.total)
	expected := 0
	for rank := 0; rank < s.total; rank++ {
		if s.alive[rank] && planActive(plan, rank) {
			expected++
		}
	}
	got := 0
	for got < expected {
		cm := <-s.inbox
		if cm.gen != s.gen[cm.rank] || !s.alive[cm.rank] {
			continue // stale message from a previous incarnation
		}
		if cm.err != nil {
			(*CoordinatorServer)(s).markDead(cm.rank, t)
			if planActive(plan, cm.rank) && !seen[cm.rank] {
				return engine.ControlReport{}, s.abort(plan, cm.rank, cm.err)
			}
			continue
		}
		switch m := cm.msg.(type) {
		case RoundEnd:
			if m.Round != t || m.Attempt != attempt || m.Rank != cm.rank {
				return engine.ControlReport{}, fmt.Errorf("transport: round %d attempt %d: unexpected report %+v from %d", t, attempt, m, cm.rank)
			}
			if seen[m.Rank] {
				return engine.ControlReport{}, fmt.Errorf("transport: round %d: duplicate report for rank %d", t, m.Rank)
			}
			seen[m.Rank] = true
			reports[m.Rank] = engine.NodeReport{
				Loss:       m.Loss,
				Trained:    m.Trained,
				PayloadLen: m.PayloadLen,
				Flows:      m.Flows,
			}
			got++
		case RoundFailed:
			if m.Round != t {
				continue // stale failure from an aborted attempt
			}
			dead := m.Peer
			if dead >= 0 && dead < s.total && s.alive[dead] {
				(*CoordinatorServer)(s).markDead(dead, t)
			}
			return engine.ControlReport{}, s.abort(plan, dead, fmt.Errorf("rank %d reported: %s", m.Rank, m.Reason))
		default:
			return engine.ControlReport{}, fmt.Errorf("transport: round %d: unexpected %T from %d", t, cm.msg, cm.rank)
		}
	}

	s.addrsDirty = false
	return s.fold.Fold(reports), nil
}

// abort cancels the round attempt on every survivor: broadcast Abort, then
// drain each living connection until its AbortAck (discarding the attempt's
// RoundEnd/RoundFailed stragglers). Returns the errRoundAborted the round
// loop retries on.
func (s *tcpControl) abort(plan core.RoundPlan, lostRank int, cause error) error {
	t := plan.Round
	s.tm.AbortsTotal.Inc()
	pending := map[int]bool{}
	for rank := 0; rank < s.total; rank++ {
		if !s.alive[rank] {
			continue
		}
		if err := s.conns[rank].Send(Abort{Round: t}); err != nil {
			(*CoordinatorServer)(s).markDead(rank, t)
			continue
		}
		pending[rank] = true
	}
	for len(pending) > 0 {
		cm := <-s.inbox
		if cm.gen != s.gen[cm.rank] || !pending[cm.rank] {
			continue
		}
		if cm.err != nil {
			(*CoordinatorServer)(s).markDead(cm.rank, t)
			delete(pending, cm.rank)
			continue
		}
		if ack, ok := cm.msg.(AbortAck); ok && ack.Round == t {
			delete(pending, cm.rank)
		}
		// Anything else (RoundEnd, RoundFailed of the dying attempt) is
		// discarded: the connection is FIFO, so the ack closes the attempt.
	}
	return &errRoundAborted{round: t, rank: lostRank, cause: cause}
}

// collect gathers the final model from the given rank (Algorithm 1 line 8)
// and releases the workers.
func (s *CoordinatorServer) collect(rank int) ([]float64, error) {
	if err := s.conns[rank].Send(CollectRequest{}); err != nil {
		return nil, err
	}
	var final FinalModel
	for {
		cm := <-s.inbox
		if cm.rank != rank || cm.gen != s.gen[rank] {
			continue
		}
		if cm.err != nil {
			return nil, fmt.Errorf("transport: collect: %w", cm.err)
		}
		fm, ok := cm.msg.(FinalModel)
		if !ok {
			return nil, fmt.Errorf("transport: collect got %T", cm.msg)
		}
		final = fm
		break
	}
	for rank := 0; rank < s.total; rank++ {
		if !s.alive[rank] {
			continue
		}
		if err := s.conns[rank].Send(Done{}); err != nil {
			log.Printf("transport: done to %d: %v", rank, err)
		}
	}
	params, err := tensor.Words(final.Params)
	if err != nil {
		return nil, fmt.Errorf("transport: collect: %w", err)
	}
	s.logf("coordinator: collected %d parameters, done", len(params))
	return params, nil
}
