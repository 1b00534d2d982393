package engine

import (
	"fmt"
	"math/bits"
	"sort"

	"sapspsgd/internal/core"
	"sapspsgd/internal/tensor"
)

// Pattern is a round's communication shape: who a node talks to and in what
// order, independent of what travels (the Codec) and of how it travels (the
// Transport). A pattern is one phase program — PhaseCount phases, each rank's
// slice of a phase run by RunPhase — so each pattern owns its choreography
// (the hub pattern, for instance, delivers the downlink before the worker
// computes), and every executor runs that one description: the sharded
// runtime runs a phase across all its ranks before the next, WorkerRound
// runs one rank's phases back to back.
//
// Within a phase a rank may compute, encode, decode, merge, and Send; every
// Recv must consume a deposit made in a strictly earlier phase. That rule is
// the whole liveness argument: a rank issues all of a phase's sends before
// it starts the next phase, so a blocked Recv only ever waits on an earlier
// phase of another rank, the wait graph is acyclic, and a conforming phase
// program cannot deadlock on any executor. It is also the determinism
// argument: each rank's floating-point work is confined to its own state (or,
// in an all-gather, to its own slice of the aggregate its engine's ranks
// share) and happens in program order, whatever interleaving the executor
// picks.
type Pattern interface {
	// Name identifies the pattern family ("pairwise", "hub", ...).
	Name() string
	// Validate rejects malformed plans before dispatch. This matters for
	// liveness, not just correctness: a malformed plan can leave a node
	// blocked in a Recv with nobody sending.
	Validate(plan core.RoundPlan, n int) error
	// PhaseCount returns the number of phases one round needs over n nodes
	// under plan.
	PhaseCount(plan core.RoundPlan, n int) int
	// RunPhase executes rank ctx.Self's slice of phase p. st is the rank's
	// private in-flight state, reset by the executor at round start; the
	// rank's NodeReport accumulates in st.Rep.
	RunPhase(ctx RoundContext, p int, node Node, codecs []Codec, tr Transport, st *PhaseState) error
}

// PhaseFuser is an optional Pattern extension for barrier elision: a false
// entry in PhaseDeps tells the sharded runtime that the boundary between
// phases p and p+1 needs no barrier, so the two phases fuse into one dispatch
// per shard and the receives synchronize on the transport's FIFO instead. A
// boundary may be declared fusable only when every buffer a rank deposits
// before the boundary stays unwritten by its owner until the round completes
// (in-process receivers may still be reading it). Patterns that rewrite their
// send scratch phase over phase — the butterfly collective — must not fuse.
type PhaseFuser interface {
	// PhaseDeps appends PhaseCount-1 booleans to deps, one per adjacent
	// phase boundary in order: true keeps the barrier, false fuses.
	PhaseDeps(plan core.RoundPlan, n int, deps []bool) []bool
}

// PhaseParticipants is an optional Pattern extension for dispatch
// elision: PhaseRanks names the half-open rank interval [lo, hi) that has
// work in a phase, and the runtime skips shards entirely outside it (their
// reports read as zero for the round unless another phase involves them).
// Over-approximating is always safe — RunPhase on a rank with nothing to do
// is a no-op.
type PhaseParticipants interface {
	PhaseRanks(plan core.RoundPlan, n int, phase int) (lo, hi int)
}

// PhaseState carries one rank's in-flight round state across the round's
// phases. An executor owns one per rank and recycles it round over round via
// reset, so all scratch below keeps its capacity and a steady-state round
// allocates nothing.
type PhaseState struct {
	// Rep accumulates the rank's NodeReport across phases.
	Rep NodeReport

	skip   bool      // round finished early (e.g. unmatched pairwise rank)
	sent   int64     // wire bytes of the in-flight outbound payload
	vec    []float64 // running sum (butterfly), or a lone rank's all-gather sum
	msgs   []PeerMsg // pending merge messages
	lo, hi int       // owned segment (halving/doubling)
	peers  []int     // chosen-worker scratch (hub server)

	// words are the round's all-gather payloads by sender rank, this rank's
	// own in its place. sum is the aggregate the ranks of one engine share;
	// nil under WorkerRound, whose lone rank sums every coordinate into vec.
	words [][]float64
	sum   *gatherSum

	// dec is the single-slot decode scratch for payloads consumed within
	// the same phase; decBufs hold per-message decodes that must stay alive
	// together until a Merge. Both only ever store buffers produced by a
	// codec's DecodeInto — a plain Decode result may alias the sender's
	// storage, which the receiver must never write into.
	dec     []float64
	decBufs [][]float64
	decUsed int

	own []float64 // the node's outbound vector (butterfly), read until the first sum
}

// reset prepares the state for a new round, keeping every buffer's capacity.
func (st *PhaseState) reset() {
	st.Rep = NodeReport{Flows: st.Rep.Flows[:0]}
	st.skip = false
	st.sent = 0
	st.vec = st.vec[:0]
	st.own = nil
	st.msgs = st.msgs[:0]
	st.lo, st.hi = 0, 0
	st.decUsed = 0
}

// decodeScratch decodes words with c into the single-slot scratch when the
// codec supports DecodeInto. The result is only valid until the next
// decodeScratch call on the same state — callers consume it immediately.
func (st *PhaseState) decodeScratch(c Codec, ctx RoundContext, words []float64) ([]float64, error) {
	if d, ok := c.(DecoderInto); ok {
		out, err := decodeIntoTimed(d, st.dec, ctx, words)
		if err != nil {
			return nil, err
		}
		st.dec = out
		return out, nil
	}
	return decodeTimed(c, ctx, words)
}

// decodeMsg decodes words into the next pooled per-message buffer; results
// from consecutive calls stay valid together until the round's Merge. Codecs
// without DecodeInto fall back to Decode and their result is not pooled (it
// may alias sender-owned storage).
func (st *PhaseState) decodeMsg(c Codec, ctx RoundContext, words []float64) ([]float64, error) {
	d, ok := c.(DecoderInto)
	if !ok {
		return decodeTimed(c, ctx, words)
	}
	if st.decUsed == len(st.decBufs) {
		st.decBufs = append(st.decBufs, nil)
	}
	out, err := decodeIntoTimed(d, st.decBufs[st.decUsed], ctx, words)
	if err != nil {
		return nil, err
	}
	st.decBufs[st.decUsed] = out
	st.decUsed++
	return out, nil
}

// mergeOne hands a single peer message to the node through the pooled
// message slice.
func (st *PhaseState) mergeOne(ctx RoundContext, node Node, msg PeerMsg) error {
	st.msgs = append(st.msgs[:0], msg)
	return node.Merge(ctx, st.msgs)
}

// deliver appends the message carrying from's payload: sparse words go to
// Merge as they are (Vals nil), anything else decoded into the next pooled
// per-message buffer.
func (st *PhaseState) deliver(sparse bool, c Codec, ctx RoundContext, from int, words []float64, bytes int64) error {
	m := PeerMsg{From: from, Words: words, Bytes: bytes}
	if !sparse {
		vals, err := st.decodeMsg(c, ctx, words)
		if err != nil {
			return err
		}
		m.Vals = vals
	}
	st.msgs = append(st.msgs, m)
	return nil
}

// ---------------------------------------------------------------------------
// Pairwise (matched gossip — SAPS, RandomChoose)

// Pairwise is the matched-pair gossip of Algorithm 1: plan.Peer assigns each
// node at most one symmetric partner per round; both encode, swap, and
// merge. Peer[self] == -1 skips the exchange (the node only trains).
type Pairwise struct{}

// Name implements Pattern.
func (Pairwise) Name() string { return "pairwise" }

// Validate implements Pattern: the peer table must be a symmetric matching
// over active nodes.
func (Pairwise) Validate(plan core.RoundPlan, n int) error {
	if len(plan.Peer) != n {
		return fmt.Errorf("engine: plan for %d workers, have %d", len(plan.Peer), n)
	}
	if plan.Active != nil && len(plan.Active) != n {
		return fmt.Errorf("engine: plan active set for %d workers, have %d", len(plan.Active), n)
	}
	for i, p := range plan.Peer {
		if p == -1 {
			continue
		}
		switch {
		case p < 0 || p >= n || p == i:
			return fmt.Errorf("engine: plan assigns worker %d the peer %d", i, p)
		case plan.Peer[p] != i:
			return fmt.Errorf("engine: asymmetric plan: %d→%d but %d→%d", i, p, p, plan.Peer[p])
		case plan.Active != nil && (!plan.Active[i] || !plan.Active[p]):
			return fmt.Errorf("engine: plan matches inactive worker in pair %d-%d", i, p)
		}
	}
	return nil
}

// PhaseCount implements Pattern: encode+send, then recv+merge.
func (Pairwise) PhaseCount(core.RoundPlan, int) int { return 2 }

// PhaseDeps implements PhaseFuser: the two phases fuse. A rank's payload is
// immutable from its Send until the round barrier (the codec re-encodes only
// next round), so the only cross-rank dependency is the deposit itself and
// the FIFO orders it.
func (Pairwise) PhaseDeps(_ core.RoundPlan, _ int, deps []bool) []bool {
	return append(deps, false)
}

// RunPhase implements Pattern.
func (Pairwise) RunPhase(ctx RoundContext, p int, node Node, codecs []Codec, tr Transport, st *PhaseState) error {
	peer := -1
	if ctx.Self < len(ctx.Plan.Peer) {
		peer = ctx.Plan.Peer[ctx.Self]
	}
	switch p {
	case 0:
		loss, out, err := node.Compute(ctx)
		if err != nil {
			return err
		}
		st.Rep.Loss, st.Rep.Trained = loss, true
		if peer < 0 {
			st.skip = true
			return nil
		}
		words, err := encodeTimed(codecs[ctx.Self], ctx, out)
		if err != nil {
			return err
		}
		st.sent = codecs[ctx.Self].WireBytes(words)
		st.Rep.PayloadLen = len(words)
		return tr.Send(ctx.Round, ctx.Self, peer, words)
	case 1:
		if st.skip {
			return nil
		}
		peerWords, err := tr.Recv(ctx.Round, ctx.Self, peer)
		if err != nil {
			return err
		}
		vals, err := st.decodeScratch(codecs[peer], ctx, peerWords)
		if err != nil {
			return err
		}
		recv := codecs[peer].WireBytes(peerWords)
		st.Rep.Flows = append(st.Rep.Flows, Flow{Peer: peer, Sent: st.sent, Recv: recv})
		return st.mergeOne(ctx, node, PeerMsg{From: peer, Vals: vals, Words: peerWords, Bytes: recv})
	}
	return nil
}

// ---------------------------------------------------------------------------
// Neighborhood (static-topology gossip — D-PSGD, DCD-PSGD)

// Neighborhood is static-neighborhood gossip: every round each node
// broadcasts one encoded payload to all its topology neighbors and merges
// everything it hears. With IncludeSelf the node's own payload is delivered
// too — difference-compressed schemes need the node to apply the same lossy
// delta to its own public replica that its neighbors apply to theirs.
type Neighborhood struct {
	// Sparse: every payload is sparse wire words (TopK, RandomK), delivered
	// to Merge undecoded — Words set, Vals nil.
	Sparse bool

	adj         [][]int
	includeSelf bool
}

// NewNeighborhood builds the pattern over a symmetric adjacency. Neighbor
// lists are copied and sorted ascending.
func NewNeighborhood(adj [][]int, includeSelf bool) *Neighborhood {
	n := len(adj)
	p := &Neighborhood{adj: make([][]int, n), includeSelf: includeSelf}
	for i, ns := range adj {
		p.adj[i] = append([]int(nil), ns...)
		sort.Ints(p.adj[i])
		for _, j := range p.adj[i] {
			if j < 0 || j >= n || j == i {
				panic(fmt.Sprintf("engine: neighborhood adjacency %d→%d over %d nodes", i, j, n))
			}
		}
	}
	// Symmetry: gossip is bidirectional; a one-sided edge would deadlock.
	for i, ns := range p.adj {
		for _, j := range ns {
			if !contains(p.adj[j], i) {
				panic(fmt.Sprintf("engine: asymmetric neighborhood edge %d→%d", i, j))
			}
		}
	}
	return p
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Name implements Pattern.
func (p *Neighborhood) Name() string { return "neighborhood" }

// Validate implements Pattern: the static topology has no dynamic
// membership — every node must be active.
func (p *Neighborhood) Validate(plan core.RoundPlan, n int) error {
	if len(p.adj) != n {
		return fmt.Errorf("engine: neighborhood over %d nodes, plan has %d", len(p.adj), n)
	}
	return requireAllActive(plan, n, "neighborhood")
}

// PhaseCount implements Pattern: broadcast, then gather+merge.
func (p *Neighborhood) PhaseCount(core.RoundPlan, int) int { return 2 }

// PhaseDeps implements PhaseFuser: broadcast payloads are immutable after
// their sends, so gather fuses onto broadcast and synchronizes on the FIFOs.
func (p *Neighborhood) PhaseDeps(_ core.RoundPlan, _ int, deps []bool) []bool {
	return append(deps, false)
}

// RunPhase implements Pattern.
func (p *Neighborhood) RunPhase(ctx RoundContext, phase int, node Node, codecs []Codec, tr Transport, st *PhaseState) error {
	peers := p.adj[ctx.Self]
	switch phase {
	case 0:
		loss, out, err := node.Compute(ctx)
		if err != nil {
			return err
		}
		st.Rep.Loss, st.Rep.Trained = loss, true
		if len(peers) == 0 {
			st.skip = true
			return nil
		}
		words, err := encodeTimed(codecs[ctx.Self], ctx, out)
		if err != nil {
			return err
		}
		st.sent = codecs[ctx.Self].WireBytes(words)
		st.Rep.PayloadLen = len(words)
		st.msgs = st.msgs[:0]
		if p.includeSelf {
			if err := st.deliver(p.Sparse, codecs[ctx.Self], ctx, ctx.Self, words, st.sent); err != nil {
				return err
			}
		}
		for _, q := range peers {
			if err := tr.Send(ctx.Round, ctx.Self, q, words); err != nil {
				return err
			}
		}
		return nil
	case 1:
		if st.skip {
			return nil
		}
		for _, q := range peers {
			w, err := tr.Recv(ctx.Round, ctx.Self, q)
			if err != nil {
				return err
			}
			b := codecs[q].WireBytes(w)
			st.Rep.Flows = append(st.Rep.Flows, Flow{Peer: q, Sent: st.sent, Recv: b})
			if err := st.deliver(p.Sparse, codecs[q], ctx, q, w, b); err != nil {
				return err
			}
		}
		return node.Merge(ctx, st.msgs)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Hub (parameter-server fan-in — PS-PSGD, FedAvg, S-FedAvg)

// Hub is the star pattern: one server rank and its chosen workers per round.
// The choreography is pull → train → push: the server computes its payload
// (the current global model) and sends it down to every chosen worker; a
// worker merges the downlink *before* computing, then pushes its own encoded
// payload up; finally the server merges all uploads. The chosen set is
// plan.Active (nil = every worker); the server is always chosen.
//
// Up- and downlink codecs differ per rank: workers encode with their own
// codec (sparse deltas for S-FedAvg), the server with its own (dense model).
type Hub struct {
	// Server is the hub's node rank (by convention the last rank, so n
	// trainers + 1 server occupy ranks 0..n).
	Server int
	// Sparse: the workers' uplink payloads are sparse wire words (RandomK),
	// delivered to the server's Merge undecoded — Words set, Vals nil.
	Sparse bool
}

// Name implements Pattern.
func (Hub) Name() string { return "hub" }

// Validate implements Pattern.
func (h Hub) Validate(plan core.RoundPlan, n int) error {
	if h.Server < 0 || h.Server >= n {
		return fmt.Errorf("engine: hub server rank %d of %d nodes", h.Server, n)
	}
	if plan.Active != nil {
		if len(plan.Active) != n {
			return fmt.Errorf("engine: plan active set for %d nodes, have %d", len(plan.Active), n)
		}
		if !plan.Active[h.Server] {
			return fmt.Errorf("engine: hub plan deactivates the server")
		}
	}
	return nil
}

// chosenInto appends the participating worker ranks to dst in ascending
// order.
func (h Hub) chosenInto(dst []int, plan core.RoundPlan, n int) []int {
	for i := 0; i < n; i++ {
		if i == h.Server {
			continue
		}
		if plan.Active == nil || plan.Active[i] {
			dst = append(dst, i)
		}
	}
	return dst
}

// PhaseCount implements Pattern: server downlink; worker
// pull-train-push; server uplink merge.
func (Hub) PhaseCount(core.RoundPlan, int) int { return 3 }

// PhaseRanks implements PhaseParticipants: the downlink and uplink phases
// touch only the server's rank, so worker shards are dispatched for the
// middle phase alone (and hand their reports over as soon as it completes).
func (h Hub) PhaseRanks(_ core.RoundPlan, n int, phase int) (int, int) {
	if phase == 1 {
		return 0, n
	}
	return h.Server, h.Server + 1
}

// RunPhase implements Pattern. The runtime never calls RunPhase for an
// inactive rank, so a worker reaching here is always chosen.
func (h Hub) RunPhase(ctx RoundContext, p int, node Node, codecs []Codec, tr Transport, st *PhaseState) error {
	if ctx.Self == h.Server {
		return h.serverPhase(ctx, p, node, codecs, tr, st)
	}
	return h.workerPhase(ctx, p, node, codecs, tr, st)
}

func (h Hub) serverPhase(ctx RoundContext, p int, node Node, codecs []Codec, tr Transport, st *PhaseState) error {
	switch p {
	case 0:
		loss, out, err := node.Compute(ctx)
		if err != nil {
			return err
		}
		// The server holds the model but does not train: its loss stays out
		// of the round mean.
		st.Rep.Loss, st.Rep.Trained = loss, false
		words, err := encodeTimed(codecs[ctx.Self], ctx, out)
		if err != nil {
			return err
		}
		st.sent = codecs[ctx.Self].WireBytes(words) // downlink bytes
		st.Rep.PayloadLen = len(words)
		st.peers = h.chosenInto(st.peers[:0], ctx.Plan, ctx.N)
		for _, w := range st.peers {
			if err := tr.Send(ctx.Round, ctx.Self, w, words); err != nil {
				return err
			}
		}
		return nil
	case 2:
		st.peers = h.chosenInto(st.peers[:0], ctx.Plan, ctx.N)
		st.msgs = st.msgs[:0]
		for _, w := range st.peers {
			uw, err := tr.Recv(ctx.Round, ctx.Self, w)
			if err != nil {
				return err
			}
			b := codecs[w].WireBytes(uw)
			st.Rep.Flows = append(st.Rep.Flows, Flow{Peer: w, Sent: st.sent, Recv: b})
			if err := st.deliver(h.Sparse, codecs[w], ctx, w, uw, b); err != nil {
				return err
			}
		}
		return node.Merge(ctx, st.msgs)
	}
	return nil
}

func (h Hub) workerPhase(ctx RoundContext, p int, node Node, codecs []Codec, tr Transport, st *PhaseState) error {
	if p != 1 {
		return nil
	}
	downWords, err := tr.Recv(ctx.Round, ctx.Self, h.Server)
	if err != nil {
		return err
	}
	vals, err := st.decodeScratch(codecs[h.Server], ctx, downWords)
	if err != nil {
		return err
	}
	down := codecs[h.Server].WireBytes(downWords)
	if err := st.mergeOne(ctx, node, PeerMsg{From: h.Server, Vals: vals, Words: downWords, Bytes: down}); err != nil {
		return err
	}
	loss, out, err := node.Compute(ctx)
	if err != nil {
		return err
	}
	st.Rep.Loss, st.Rep.Trained = loss, true
	words, err := encodeTimed(codecs[ctx.Self], ctx, out)
	if err != nil {
		return err
	}
	up := codecs[ctx.Self].WireBytes(words)
	st.Rep.PayloadLen = len(words)
	st.Rep.Flows = append(st.Rep.Flows, Flow{Peer: h.Server, Sent: up, Recv: down})
	return tr.Send(ctx.Round, ctx.Self, h.Server, words)
}

// ---------------------------------------------------------------------------
// The all-gather sum (AllGather, non-power-of-two Collective)

// gatherSum is the all-gather aggregate the ranks of one engine share. In the
// gather phase rank r sums coordinates [r·N/n, (r+1)·N/n) and nothing else;
// after the barrier every rank merges all N. Rank 0 sizes it before its
// sends, so any other rank first touches it after its Recv from rank 0 — the
// transport's happens-before edge. The shard runner owns it, so two engines
// never share one.
type gatherSum struct{ vec []float64 }

// gatherSlice returns the aggregate rank ctx.Self sums into and the
// coordinates [lo, hi) it owns: its slice of the engine's shared aggregate,
// or every coordinate of its own under WorkerRound.
func (st *PhaseState) gatherSlice(ctx RoundContext) (agg []float64, lo, hi int) {
	if st.sum == nil {
		return st.vec, 0, len(st.vec)
	}
	agg = st.sum.vec
	return agg, ctx.Self * len(agg) / ctx.N, (ctx.Self + 1) * len(agg) / ctx.N
}

// phaseSendAll keeps words as the rank's own payload, sizes the aggregate to
// dim zeroed coordinates, and deposits words to every other rank in
// ascending order.
func phaseSendAll(ctx RoundContext, tr Transport, st *PhaseState, words []float64, dim int) error {
	if cap(st.words) < ctx.N {
		st.words = make([][]float64, ctx.N)
	}
	st.words = st.words[:ctx.N]
	st.words[ctx.Self] = words
	switch {
	case st.sum == nil:
		st.vec = resizeZeroed(st.vec, dim)
	case ctx.Self == 0:
		st.sum.vec = resizeZeroed(st.sum.vec, dim)
	}
	for q := 0; q < ctx.N; q++ {
		if q == ctx.Self {
			continue
		}
		if err := tr.Send(ctx.Round, ctx.Self, q, words); err != nil {
			return err
		}
	}
	return nil
}

// phaseGather drains every other rank's deposit in ascending order, then sums
// the rank's coordinates of the aggregate in the one canonical order: payload
// 0's value, then every later payload's in ascending rank, the rank's own in
// its place. Each coordinate gets that one sequence of operations whichever
// rank sums it, so the ranks of an engine and a fleet of one-rank processes
// hold the same bits.
func (a AllGather) phaseGather(ctx RoundContext, codecs []Codec, tr Transport, st *PhaseState) error {
	for q := 0; q < ctx.N; q++ {
		if q == ctx.Self {
			continue
		}
		pw, err := tr.Recv(ctx.Round, ctx.Self, q)
		if err != nil {
			return err
		}
		st.Rep.Flows = append(st.Rep.Flows, Flow{Peer: q, Sent: st.sent, Recv: codecs[q].WireBytes(pw)})
		st.words[q] = pw
	}
	agg, lo, hi := st.gatherSlice(ctx)
	for q, pw := range st.words {
		var err error
		switch {
		case a.Sparse:
			if err = addSparseRange(agg, lo, hi, pw); err != nil {
				err = fmt.Errorf("engine: sparse all-gather: payload of rank %d: %w", q, err)
			}
		case a.Levels > 0:
			err = addQSGD(agg, lo, hi, q, pw, a.Levels)
		default:
			err = st.addDecoded(codecs[q], ctx, agg, lo, hi, q, pw)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// addQSGD dequantizes q's words [norm, code...] straight into the zeroed
// agg[lo:hi] with QSGDCodec.DecodeInto's arithmetic — norm * code / s, or +0
// for a zero norm — assigning payload 0 and adding every later one.
func addQSGD(agg []float64, lo, hi, q int, words []float64, levels int) error {
	if len(words) != len(agg)+1 {
		return fmt.Errorf("engine: qsgd all-gather: payload of rank %d has %d words, want %d (a norm and %d codes)", q, len(words), len(agg)+1, len(agg))
	}
	norm, s := words[0], float64(levels)
	dst := agg[lo:hi]
	codes := words[1+lo : 1+hi]
	codes = codes[:len(dst)]
	switch {
	case norm == 0:
		for i := range dst {
			dst[i] += 0 // a −0 becomes +0, as under the decoded add
		}
	case q == 0:
		for i, c := range codes {
			dst[i] = norm * c / s
		}
	default:
		for i, c := range codes {
			dst[i] += norm * c / s
		}
	}
	return nil
}

// addDecoded decodes q's words with its codec and puts agg[lo:hi] of the
// result into the aggregate, assigning payload 0 and adding every later one.
func (st *PhaseState) addDecoded(c Codec, ctx RoundContext, agg []float64, lo, hi, q int, words []float64) error {
	vals, err := st.decodeScratch(c, ctx, words)
	if err != nil {
		return err
	}
	if len(vals) != len(agg) {
		return fmt.Errorf("engine: all-gather payload of rank %d decodes to %d values, want %d", q, len(vals), len(agg))
	}
	dst, src := agg[lo:hi], vals[lo:hi]
	if q == 0 {
		copy(dst, src)
		return nil
	}
	for i, v := range src {
		dst[i] += v
	}
	return nil
}

// ---------------------------------------------------------------------------
// Collective (exact all-reduce — PSGD)

// Collective is the exact all-reduce: after the round every node's Merge
// receives the element-wise sum of all nodes' outbound vectors as a single
// PeerMsg{From: -1}. For power-of-two fleets it runs recursive
// halving/doubling (reduce-scatter + all-gather), the butterfly equivalent
// of the classic ring all-reduce: every node sends and receives exactly
// 2·D·(n-1)/n values, matching Table I's ring cost, with every transfer a
// pairwise swap the Transport can carry. Other fleet sizes run the zero
// AllGather (everyone swaps full vectors with everyone, n-1 transfers of D
// values each, summed in its canonical order), which is exact but costlier —
// callers wanting the bandwidth-optimal path should size fleets to powers of
// two.
type Collective struct{}

// Name implements Pattern.
func (Collective) Name() string { return "collective" }

// Validate implements Pattern: a collective needs every node present.
func (Collective) Validate(plan core.RoundPlan, n int) error {
	return requireAllActive(plan, n, "collective")
}

// segAfter returns the [lo, hi) segment of a D-length vector that rank owns
// after depth reduce-scatter halvings over n = 2^q nodes.
func segAfter(rank, depth, D, n int) (int, int) {
	lo, hi := 0, D
	for k := 0; k < depth; k++ {
		mask := n >> (k + 1)
		mid := lo + (hi-lo)/2
		if rank&mask == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}

// butterfly reports whether n ranks run the halving/doubling all-reduce: n
// is a power of two above one. Other fleets run AllGather's phase program.
func butterfly(n int) bool { return n > 1 && n&(n-1) == 0 }

// PhaseCount implements Pattern. Power-of-two fleets run the butterfly
// (2·log₂n exchange steps, each split across adjacent phases: the deposit in
// phase p, the matching receive in phase p+1), other sizes AllGather's.
// Collective does not implement PhaseFuser: its chunks are views that a
// sender may rewrite in a later phase (see sendChunk), and the barriers
// order those writes after the partner's reads.
func (Collective) PhaseCount(plan core.RoundPlan, n int) int {
	if !butterfly(n) {
		return AllGather{}.PhaseCount(plan, n)
	}
	return 2*(bits.Len(uint(n))-1) + 1
}

// RunPhase implements Pattern.
func (c Collective) RunPhase(ctx RoundContext, p int, node Node, codecs []Codec, tr Transport, st *PhaseState) error {
	if !butterfly(ctx.N) {
		return AllGather{}.RunPhase(ctx, p, node, codecs, tr, st)
	}
	return c.butterflyPhase(ctx, p, node, codecs, tr, st)
}

// sendChunk encodes chunk and deposits the words with partner, who reads
// them in place in the next phase. The codec must be the identity (Dense):
// its words are the chunk itself, a view of the node's own vector at the
// first step and of the running sum after it. A sent range is not
// rewritten until the phase after the partner's read: the node writes its
// own vector only in its next Compute, reduce-scatter sums only into the
// half it keeps, and all-gather fills a range reduce-scatter sent only at
// a later step. A codec whose words are scratch its next encode rewrites
// would need copies; it gets an error.
func (st *PhaseState) sendChunk(ctx RoundContext, codecs []Codec, tr Transport, chunk []float64, partner int) error {
	words, err := encodeTimed(codecs[ctx.Self], ctx, chunk)
	if err != nil {
		return err
	}
	if len(words) != len(chunk) || len(chunk) > 0 && &words[0] != &chunk[0] {
		return fmt.Errorf("engine: collective needs an identity codec, but %s's words are not the chunk it encoded", codecs[ctx.Self].Name())
	}
	st.sent = codecs[ctx.Self].WireBytes(words)
	return tr.Send(ctx.Round, ctx.Self, partner, words)
}

// recvChunk drains partner's deposit and decodes it. The flow pairs this receive with the bytes of the chunk
// sent to the same partner one phase earlier. The returned values live in
// the single-slot decode scratch (or the sender's deposit, for identity
// codecs) and are consumed before the phase ends.
func (st *PhaseState) recvChunk(ctx RoundContext, codecs []Codec, tr Transport, partner int) ([]float64, error) {
	pw, err := tr.Recv(ctx.Round, ctx.Self, partner)
	if err != nil {
		return nil, err
	}
	vals, err := st.decodeScratch(codecs[partner], ctx, pw)
	if err != nil {
		return nil, err
	}
	st.Rep.Flows = append(st.Rep.Flows, Flow{Peer: partner, Sent: st.sent, Recv: codecs[partner].WireBytes(pw)})
	return vals, nil
}

// rsGeometry is reduce-scatter step k's exchange geometry given the owned
// segment [lo, hi) before the step.
func rsGeometry(self, n, k, lo, hi int) (partner, sendLo, sendHi, keepLo, keepHi int) {
	mask := n >> (k + 1)
	partner = self ^ mask
	mid := lo + (hi-lo)/2
	sendLo, sendHi, keepLo, keepHi = mid, hi, lo, mid
	if self&mask != 0 {
		sendLo, sendHi, keepLo, keepHi = lo, mid, mid, hi
	}
	return
}

// butterflyPhase is the power-of-two halving/doubling all-reduce split into
// 2q+1 phases: phase 0 computes and deposits reduce-scatter step 0; phase
// p ∈ [1, q] drains step p-1, accumulates, and deposits the next step (the
// first all-gather chunk at p == q); phase q+g drains gather step g-1 and
// deposits step g; phase 2q drains the last chunk and merges the sum.
func (Collective) butterflyPhase(ctx RoundContext, p int, node Node, codecs []Codec, tr Transport, st *PhaseState) error {
	self, n := ctx.Self, ctx.N
	q := bits.Len(uint(n)) - 1
	if p == 0 {
		loss, out, err := node.Compute(ctx)
		if err != nil {
			return err
		}
		st.Rep.Loss, st.Rep.Trained, st.Rep.PayloadLen = loss, true, len(out)
		// The running sum is written before it is read: the first drain
		// sums the kept half from out, and all-gather fills the rest.
		if cap(st.vec) < len(out) {
			st.vec = make([]float64, len(out))
		}
		st.vec, st.own = st.vec[:len(out)], out
		st.lo, st.hi = 0, len(out)
		partner, sendLo, sendHi, _, _ := rsGeometry(self, n, 0, st.lo, st.hi)
		return st.sendChunk(ctx, codecs, tr, out[sendLo:sendHi], partner)
	}
	D := len(st.vec)
	if p <= q {
		// Drain reduce-scatter step p-1.
		k := p - 1
		partner, _, _, keepLo, keepHi := rsGeometry(self, n, k, st.lo, st.hi)
		vals, err := st.recvChunk(ctx, codecs, tr, partner)
		if err != nil {
			return err
		}
		if len(vals) != keepHi-keepLo {
			return fmt.Errorf("engine: collective chunk of %d values, want %d", len(vals), keepHi-keepLo)
		}
		sum := st.vec
		if k == 0 {
			sum = st.own
		}
		tensor.Add(st.vec[keepLo:keepHi], sum[keepLo:keepHi], vals)
		st.lo, st.hi = keepLo, keepHi
		if p < q {
			// Deposit reduce-scatter step p.
			partner, sendLo, sendHi, _, _ := rsGeometry(self, n, p, st.lo, st.hi)
			return st.sendChunk(ctx, codecs, tr, st.vec[sendLo:sendHi], partner)
		}
		// Deposit all-gather step 0.
		partner = self ^ 1
		myLo, myHi := segAfter(self, q, D, n)
		return st.sendChunk(ctx, codecs, tr, st.vec[myLo:myHi], partner)
	}
	// Drain all-gather step g-1.
	g := p - q
	partner := self ^ (1 << (g - 1))
	pLo, pHi := segAfter(partner, q-(g-1), D, n)
	vals, err := st.recvChunk(ctx, codecs, tr, partner)
	if err != nil {
		return err
	}
	if len(vals) != pHi-pLo {
		return fmt.Errorf("engine: collective gather chunk of %d values, want %d", len(vals), pHi-pLo)
	}
	copy(st.vec[pLo:pHi], vals)
	if g < q {
		// Deposit all-gather step g.
		partner := self ^ (1 << g)
		myLo, myHi := segAfter(self, q-g, D, n)
		return st.sendChunk(ctx, codecs, tr, st.vec[myLo:myHi], partner)
	}
	return st.mergeOne(ctx, node, PeerMsg{From: -1, Vals: st.vec})
}

// ---------------------------------------------------------------------------
// AllGather (complete-graph gossip of compressed payloads — TopK, QSGD)

// AllGather is the complete-graph gossip used by the compressed all-gather
// baselines: every node broadcasts one encoded payload to every other node,
// and Merge receives the element-wise sum of all *decoded* payloads, the
// node's own included (a lossy compressor must see its own loss), as one
// read-only PeerMsg{From: -1}. Every coordinate is summed in one canonical
// order — ascending sender rank — so every rank on every executor merges the
// same bits.
//
// The round is three phases: compute, encode and send; receive, then sum;
// merge. An engine's ranks share one aggregate and each sums only its own
// slice of the coordinates, n·N adds a round in all; a lone rank
// (WorkerRound) sums every coordinate itself. Payloads are read straight from
// their wire words when Sparse or Levels says what they are; any other codec
// is decoded.
type AllGather struct {
	// Sparse: every payload is sparse wire words (TopK, RandomK),
	// scatter-added with AddSparse's checks.
	Sparse bool
	// Levels > 0 (Sparse unset): every payload is a QSGDCodec's words at
	// this level count, dequantized in place.
	Levels int
}

// Name implements Pattern.
func (AllGather) Name() string { return "all-gather" }

// Validate implements Pattern.
func (AllGather) Validate(plan core.RoundPlan, n int) error {
	return requireAllActive(plan, n, "all-gather")
}

// PhaseCount implements Pattern: broadcast; gather and sum; merge.
func (AllGather) PhaseCount(core.RoundPlan, int) int { return 3 }

// PhaseDeps implements PhaseFuser: as with Neighborhood, the broadcast
// payload is immutable after its sends, so the gather fuses onto it. The
// merge keeps its barrier: it reads the slices every other rank summed.
func (AllGather) PhaseDeps(_ core.RoundPlan, _ int, deps []bool) []bool {
	return append(deps, false, true)
}

// RunPhase implements Pattern.
func (a AllGather) RunPhase(ctx RoundContext, p int, node Node, codecs []Codec, tr Transport, st *PhaseState) error {
	switch p {
	case 0:
		loss, out, err := node.Compute(ctx)
		if err != nil {
			return err
		}
		words, err := encodeTimed(codecs[ctx.Self], ctx, out)
		if err != nil {
			return err
		}
		st.Rep.Loss, st.Rep.Trained, st.Rep.PayloadLen = loss, true, len(words)
		st.sent = codecs[ctx.Self].WireBytes(words)
		return phaseSendAll(ctx, tr, st, words, len(out))
	case 1:
		return a.phaseGather(ctx, codecs, tr, st)
	case 2:
		agg, _, _ := st.gatherSlice(ctx)
		return st.mergeOne(ctx, node, PeerMsg{From: -1, Vals: agg})
	}
	return nil
}

// requireAllActive rejects plans with dynamic membership for patterns whose
// shape has no notion of absence.
func requireAllActive(plan core.RoundPlan, n int, pattern string) error {
	if plan.Active == nil {
		return nil
	}
	if len(plan.Active) != n {
		return fmt.Errorf("engine: plan active set for %d nodes, have %d", len(plan.Active), n)
	}
	for i, a := range plan.Active {
		if !a {
			return fmt.Errorf("engine: %s pattern cannot run with node %d inactive", pattern, i)
		}
	}
	return nil
}

// Compile-time checks: the barrier/dispatch elision extensions stay wired to
// their patterns.
var (
	_ PhaseFuser        = Pairwise{}
	_ PhaseFuser        = (*Neighborhood)(nil)
	_ PhaseFuser        = AllGather{}
	_ PhaseParticipants = Hub{}
)
