package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/graph"
	"sapspsgd/internal/netsim"
)

// All tracing lives in this file and works from outside the program: it
// wraps the interfaces the engines already accept (Planner, Node, Codec,
// Ledger) and records one span per call into the layer. Nothing under
// internal/ knows it is being traced.

// kind names a span; the layer it belongs to is the part before the dot.
type kind uint8

const (
	kRound    kind = iota // one synchronous round (or one async run), the root
	kPlan                 // Planner.Plan
	kLedger               // all ledger charges of a round + EndRound
	kCompute              // Node.Compute
	kEncode               // Codec.Encode
	kDecode               // Codec.Decode / DecodeInto
	kMerge                // Node.Merge
	kSnapshot             // AsyncNode.Snapshot
	kConnect              // tcp: listen → last worker registered
	kindCount
)

var kindNames = [kindCount]string{
	"engine.round", "core.plan", "netsim.ledger", "nn.compute",
	"engine.encode", "engine.decode", "engine.merge", "engine.snapshot",
	"transport.connect",
}

// span is one timed call. Start and end are nanoseconds since the tracer's
// epoch; every non-root span's parent is the kRound span with its round id.
type span struct {
	kind       kind
	rank       int32 // -1 for the coordinator's own spans
	round      int32
	start, end int64
}

// tracer holds the spans of one pass in memory: one buffer per rank, each
// written only by the goroutine that is executing that rank (the engines run
// a rank on one goroutine at a time and end every round with a barrier), plus
// the coordinator's buffer. Nothing is written out until the pass is over.
type tracer struct {
	fleet string // which fleet of the pass this is, for the trace file
	epoch time.Time
	coord []span
	ranks [][]span
}

func newTracer(fleet string, ranks int) *tracer {
	return &tracer{fleet: fleet, epoch: time.Now(), ranks: make([][]span, ranks)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// rank closes a span that began at start on the given rank's buffer.
func (t *tracer) rank(rank int, k kind, round int, start int64) {
	t.ranks[rank] = append(t.ranks[rank], span{k, int32(rank), int32(round), start, t.now()})
}

// coordSpan closes a span on the coordinator's buffer.
func (t *tracer) coordSpan(k kind, round int, start int64) {
	t.coord = append(t.coord, span{k, -1, int32(round), start, t.now()})
}

// writeTrace stores a pass's spans as JSON, one group per fleet the pass
// ran: each span is {name, parent, rank, round, start_ns, end_ns}, the
// coordinator's first, then rank by rank in recording order.
func writeTrace(path string, p *passOut) error {
	type jsonSpan struct {
		Name   string `json:"name"`
		Parent string `json:"parent,omitempty"`
		Rank   int32  `json:"rank"`
		Round  int32  `json:"round"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	type group struct {
		Fleet string     `json:"fleet"`
		Spans []jsonSpan `json:"spans"`
	}
	var groups []group
	for _, t := range p.tracers {
		g := group{Fleet: t.fleet}
		for _, buf := range append([][]span{t.coord}, t.ranks...) {
			for _, s := range buf {
				js := jsonSpan{Name: kindNames[s.kind], Rank: s.rank, Round: s.round, Start: s.start, End: s.end}
				if s.kind != kRound {
					js.Parent = kindNames[kRound]
				}
				g.Spans = append(g.Spans, js)
			}
		}
		groups = append(groups, g)
	}
	data, err := json.Marshal(groups)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// heapAllocs is the process's cumulative heap object count (no
// stop-the-world, unlike runtime.ReadMemStats).
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// ---------------------------------------------------------------------------
// Node

type tracedNode struct {
	inner engine.Node
	t     *tracer
}

func (n tracedNode) Compute(ctx engine.RoundContext) (float64, []float64, error) {
	s := n.t.now()
	loss, out, err := n.inner.Compute(ctx)
	n.t.rank(ctx.Self, kCompute, ctx.Round, s)
	return loss, out, err
}

func (n tracedNode) Merge(ctx engine.RoundContext, msgs []engine.PeerMsg) error {
	s := n.t.now()
	err := n.inner.Merge(ctx, msgs)
	n.t.rank(ctx.Self, kMerge, ctx.Round, s)
	return err
}

// wrapNode times a node's Compute and Merge. The wrapper is Stateful exactly
// when the node is, so Engine.Checkpoint behaves as it does unwrapped.
func wrapNode(n engine.Node, t *tracer) engine.Node {
	tn := tracedNode{n, t}
	if st, ok := n.(engine.Stateful); ok {
		return struct {
			tracedNode
			engine.Stateful
		}{tn, st}
	}
	return tn
}

// tracedAsyncNode adds Snapshot, which the async driver calls on the passive
// side of a rendezvous (no round context: the span carries round -1).
type tracedAsyncNode struct {
	tracedNode
	async engine.AsyncNode
	rank  int
}

func (n tracedAsyncNode) Snapshot() []float64 {
	s := n.t.now()
	out := n.async.Snapshot()
	n.t.rank(n.rank, kSnapshot, -1, s)
	return out
}

func wrapAsyncNode(n engine.AsyncNode, rank int, t *tracer) engine.AsyncNode {
	return tracedAsyncNode{tracedNode{n, t}, n, rank}
}

// ---------------------------------------------------------------------------
// Codec

// tracedCodec times Encode (on the sender's rank) and Decode (on the
// receiver's: receivers decode with the sender's codec instance, and
// ctx.Self is always the rank doing the work).
type tracedCodec struct {
	inner engine.Codec
	t     *tracer
}

func (c tracedCodec) Name() string                    { return c.inner.Name() }
func (c tracedCodec) WireBytes(words []float64) int64 { return c.inner.WireBytes(words) }

func (c tracedCodec) Encode(ctx engine.RoundContext, dense []float64) ([]float64, error) {
	s := c.t.now()
	words, err := c.inner.Encode(ctx, dense)
	c.t.rank(ctx.Self, kEncode, ctx.Round, s)
	return words, err
}

func (c tracedCodec) Decode(ctx engine.RoundContext, words []float64) ([]float64, error) {
	s := c.t.now()
	vals, err := c.inner.Decode(ctx, words)
	c.t.rank(ctx.Self, kDecode, ctx.Round, s)
	return vals, err
}

type tracedDecoderInto struct {
	into engine.DecoderInto
	t    *tracer
}

func (d tracedDecoderInto) DecodeInto(dst []float64, ctx engine.RoundContext, words []float64) ([]float64, error) {
	s := d.t.now()
	vals, err := d.into.DecodeInto(dst, ctx, words)
	d.t.rank(ctx.Self, kDecode, ctx.Round, s)
	return vals, err
}

// wrapCodec times a codec. The engine picks its decode path by asking the
// codec whether it implements DecoderInto, and checkpoints it only if it is
// Stateful, so the wrapper implements each exactly when the codec does.
func wrapCodec(c engine.Codec, t *tracer) engine.Codec {
	tc := tracedCodec{c, t}
	into, isInto := c.(engine.DecoderInto)
	st, isStateful := c.(engine.Stateful)
	switch {
	case isInto && isStateful:
		return struct {
			tracedCodec
			tracedDecoderInto
			engine.Stateful
		}{tc, tracedDecoderInto{into, t}, st}
	case isInto:
		return struct {
			tracedCodec
			tracedDecoderInto
		}{tc, tracedDecoderInto{into, t}}
	case isStateful:
		return struct {
			tracedCodec
			engine.Stateful
		}{tc, st}
	}
	return tc
}

// ---------------------------------------------------------------------------
// Planner

// planStats is what the benchmark observes about a run's plans.
type planStats struct {
	forced  int // rounds in which Algorithm 3 had to force reconnection
	matched int // Σ ranks with a peer
	active  int // Σ ranks that could have had one
	invalid int // plans whose peer table is not a matching
	allocs  uint64
}

func (p *planStats) observe(plan core.RoundPlan, n int) {
	if plan.Forced {
		p.forced++
	}
	if plan.Peer == nil {
		return
	}
	if len(plan.Peer) != n || !graph.Matching(plan.Peer).Valid(n) {
		p.invalid++
	}
	for v, peer := range plan.Peer {
		if plan.Active != nil && !plan.Active[v] {
			continue
		}
		p.active++
		if peer >= 0 {
			p.matched++
		}
	}
}

type tracedPlanner struct {
	inner engine.Planner
	t     *tracer
	n     int
	stats planStats
}

func (p *tracedPlanner) Plan(round int) core.RoundPlan {
	a0 := heapAllocs()
	s := p.t.now()
	plan := p.inner.Plan(round)
	p.t.coordSpan(kPlan, round, s)
	p.stats.allocs += heapAllocs() - a0
	p.stats.observe(plan, p.n)
	return plan
}

// ---------------------------------------------------------------------------
// Ledger

// tracedLedger times every charge against a netsim ledger and records one
// span per round (not per exchange). For hub recipes it also maps charges
// that involve the server rank onto ServerTransfer, exactly as the algos
// package's own hub ledger does; that mapping needs the concrete
// *netsim.Ledger, which is why a wrapped ledger cannot go through
// Algorithm.Step and traced fleets are assembled from the recipe instead.
type tracedLedger struct {
	inner  *netsim.Ledger
	t      *tracer
	server int       // hub server rank, -1 for serverless recipes
	links  []float64 // server↔worker MB/s, hub only

	busy      int64 // ns charged so far this round
	round     int
	exchanges int
}

func (l *tracedLedger) Exchange(i, j int, sendBytes, recvBytes int64) {
	s := l.t.now()
	switch {
	case l.server < 0 || (i != l.server && j != l.server):
		l.inner.Exchange(i, j, sendBytes, recvBytes)
	case i == l.server:
		l.inner.ServerTransfer(j, recvBytes, sendBytes, l.links[j])
	default:
		l.inner.ServerTransfer(i, sendBytes, recvBytes, l.links[i])
	}
	l.busy += l.t.now() - s
	l.exchanges++
}

func (l *tracedLedger) EndRound() float64 {
	s := l.t.now()
	secs := l.inner.EndRound()
	end := l.t.now()
	l.busy += end - s
	l.t.coord = append(l.t.coord, span{kLedger, -1, int32(l.round), end - l.busy, end})
	l.busy = 0
	l.round++
	return secs
}

// serverLinks gives each worker its best link speed: the paper's optimistic
// placement of the parameter server, as the hub algorithms model it.
func serverLinks(bw *netsim.Bandwidth) []float64 {
	out := make([]float64, bw.N)
	bw.ForEachEdge(0, func(u, v int, w float64) {
		out[u] = max(out[u], w)
		out[v] = max(out[v], w)
	})
	return out
}

// stampLedger is what the TCP coordinator charges: a byte-counting ledger
// over the netsim one that also notes the wall time of every EndRound, the
// only signal the coordinator gives of a round having committed.
type stampLedger struct {
	engine.CountingLedger
	stamps []time.Time
}

func (l *stampLedger) EndRound() float64 {
	secs := l.CountingLedger.EndRound()
	l.stamps = append(l.stamps, time.Now())
	return secs
}
