package engine

import (
	"fmt"

	"sapspsgd/internal/netsim"
	"sapspsgd/internal/obs"
	"sapspsgd/internal/rng"
)

// This file is the engine's asynchronous driver: a single-goroutine
// discrete-event simulation over netsim's virtual-time EventQueue, in which
// ranks gossip without a global barrier. Each rank loops compute → gossip
// against the event clock; a slow or jittered rank delays only the partners
// that rendezvous with it, never the fleet. Because the whole execution is
// one goroutine draining a totally-ordered queue, and every random draw
// comes from seeded per-rank streams, a run is bit-reproducible regardless
// of GOMAXPROCS or Go's scheduler — the property the async-determinism CI
// job replays.

// AsyncNode extends Node for the barrier-free driver: a passive rendezvous
// partner must surrender its current parameter vector at any virtual time,
// not only after a Compute of its own.
type AsyncNode interface {
	Node
	// Snapshot returns the node's current shareable vector (the same
	// semantics as Compute's out). The returned slice may be node-owned
	// scratch; the driver consumes it before the node runs again.
	Snapshot() []float64
}

// AsyncComputeModel is the virtual-duration model of one rank's local
// compute block between gossips. Durations are virtual time only — they
// shape the event timeline, never the numerics drawn from the training
// streams.
type AsyncComputeModel struct {
	// MeanSeconds is the mean virtual compute duration (> 0).
	MeanSeconds float64
	// Jitter in [0, 1) scales each block by an independent uniform draw
	// from [1-Jitter, 1+Jitter].
	Jitter float64
	// SlowFactor (≥ 1) multiplies the duration of the ranks in SlowRanks —
	// the honest straggler model: only their rendezvous partners wait.
	SlowFactor float64
	// SlowRanks lists the straggling ranks.
	SlowRanks []int
}

// AsyncOptions configures one asynchronous execution.
type AsyncOptions struct {
	// Nodes holds every rank's state machine.
	Nodes []AsyncNode
	// Codecs is the shared per-rank codec table (receivers decode with the
	// sender's codec, as in the synchronous engine).
	Codecs []Codec
	// Bandwidth is the link environment; gossip partners are drawn
	// uniformly from a rank's positive-bandwidth neighbors.
	Bandwidth *netsim.Bandwidth
	// Seed derives every random stream of the run (partner choice, compute
	// jitter) via per-rank substreams.
	Seed uint64
	// Steps is the number of gossip cycles each rank initiates.
	Steps int
	// OneWay selects push gossip (Gradient Push): the initiator's payload
	// is delivered one-way and the receiver is never blocked. Default is
	// the bidirectional rendezvous (AD-PSGD): both endpoints exchange and
	// are busy for the transfer.
	OneWay bool
	// Compute is the virtual compute-duration model.
	Compute AsyncComputeModel
	// SampleEvery emits one series sample per that many completed gossips
	// fleet-wide (0 = one per len(Nodes), roughly a synchronous round's
	// worth).
	SampleEvery int
	// Sink, when non-nil, receives every processed event in virtual-time
	// order — the determinism gate's byte-comparison artifact.
	Sink *netsim.EventLog
}

// AsyncSample is one point of the virtual-time convergence series.
type AsyncSample struct {
	// Steps is the fleet-wide completed-gossip count at the sample.
	Steps int
	// Time is the virtual time of the sample.
	Time float64
	// MeanLoss is the mean training loss over the window's compute blocks.
	MeanLoss float64
	// CumBytes is the cumulative fleet traffic at the sample.
	CumBytes int64
}

// AsyncResult is one asynchronous execution's outcome.
type AsyncResult struct {
	// Steps is the total completed gossip count (len(Nodes) · Steps).
	Steps int
	// FinalTime is the virtual time of the last processed event.
	FinalTime float64
	// TotalBytes is the fleet traffic total (every endpoint's sent +
	// received).
	TotalBytes int64
	// FinalLoss is the mean loss of the last sample window.
	FinalLoss float64
	// Samples is the virtual-time convergence series.
	Samples []AsyncSample
	// SentBytes and RecvBytes are the cumulative per-rank byte totals —
	// the async ledger the determinism gate serializes.
	SentBytes, RecvBytes []int64
}

// pendingTransfer is one in-flight gossip, keyed by its initiator (a rank
// initiates at most one transfer at a time: it is blocked until delivery).
type pendingTransfer struct {
	peer  int
	words []float64 // copied payload: codec buffers are reused, a live view changes under a passive merge
	bytes int64
	step  int
}

// AsyncEngine executes an asynchronous gossip run. Construct with NewAsync,
// run once with Run.
type AsyncEngine struct {
	opts    AsyncOptions
	n       int
	nbrs    [][]int       // positive-bandwidth neighbors, ascending
	streams []*rng.Source // per-rank draw stream (durations, partners)
	freeAt  []float64     // when the rank's committed engagements end
	pending []pendingTransfer
	sent    []int64
	recv    []int64
	q       netsim.EventQueue
	// nm/em are the observability sinks (zero value = disabled), captured
	// once at construction.
	nm obs.NetsimMetrics
	em obs.EngineMetrics
}

// NewAsync validates the options and builds the driver.
func NewAsync(opts AsyncOptions) (*AsyncEngine, error) {
	n := len(opts.Nodes)
	switch {
	case n < 2:
		return nil, fmt.Errorf("engine: async fleet of %d", n)
	case len(opts.Codecs) != n:
		return nil, fmt.Errorf("engine: %d codecs for %d async nodes", len(opts.Codecs), n)
	case opts.Bandwidth == nil || opts.Bandwidth.N != n:
		return nil, fmt.Errorf("engine: async bandwidth environment does not cover %d nodes", n)
	case opts.Steps < 1:
		return nil, fmt.Errorf("engine: async steps %d", opts.Steps)
	case opts.Compute.MeanSeconds <= 0:
		return nil, fmt.Errorf("engine: async compute mean %v", opts.Compute.MeanSeconds)
	case opts.Compute.Jitter < 0 || opts.Compute.Jitter >= 1:
		return nil, fmt.Errorf("engine: async compute jitter %v outside [0, 1)", opts.Compute.Jitter)
	}
	if opts.Compute.SlowFactor != 0 && opts.Compute.SlowFactor < 1 {
		return nil, fmt.Errorf("engine: async slow factor %v < 1", opts.Compute.SlowFactor)
	}
	for _, r := range opts.Compute.SlowRanks {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("engine: async slow rank %d of %d", r, n)
		}
	}
	nbrs := make([][]int, n)
	opts.Bandwidth.ForEachEdge(0, func(u, v int, _ float64) {
		nbrs[u] = append(nbrs[u], v)
		nbrs[v] = append(nbrs[v], u)
	})
	for r, adj := range nbrs {
		if len(adj) == 0 {
			return nil, fmt.Errorf("engine: async rank %d has no positive-bandwidth neighbor", r)
		}
	}
	e := &AsyncEngine{
		opts:    opts,
		n:       n,
		nbrs:    nbrs,
		streams: make([]*rng.Source, n),
		freeAt:  make([]float64, n),
		pending: make([]pendingTransfer, n),
		sent:    make([]int64, n),
		recv:    make([]int64, n),
		nm:      obs.Current().NetsimM(),
		em:      obs.Current().EngineM(),
	}
	base := rng.New(opts.Seed)
	for r := 0; r < n; r++ {
		e.streams[r] = base.Derive(0xa0000 + uint64(r))
	}
	return e, nil
}

// slow reports the rank's compute-duration multiplier.
func (e *AsyncEngine) slow(rank int) float64 {
	f := e.opts.Compute.SlowFactor
	if f == 0 {
		return 1
	}
	for _, r := range e.opts.Compute.SlowRanks {
		if r == rank {
			return f
		}
	}
	return 1
}

// computeDur draws one compute block's virtual duration from the rank's
// stream.
func (e *AsyncEngine) computeDur(rank int) float64 {
	c := e.opts.Compute
	dur := c.MeanSeconds
	if c.Jitter > 0 {
		dur *= 1 + c.Jitter*(2*e.streams[rank].Float64()-1)
	}
	return dur * e.slow(rank)
}

// ctx builds a rank's RoundContext at a gossip step. Round carries the
// step index so stateful codecs stay coherent; there is no coordinator
// plan in async mode.
func (e *AsyncEngine) ctx(rank, step int) RoundContext {
	return RoundContext{Round: step, Seed: e.opts.Seed, Self: rank, N: e.n}
}

// emit forwards a processed event to the sink.
func (e *AsyncEngine) emit(ev netsim.Event) {
	if e.opts.Sink != nil {
		e.opts.Sink.Append(ev)
	}
}

// Run executes the whole asynchronous run on the calling goroutine and
// returns its measurements. It must be called exactly once.
func (e *AsyncEngine) Run() (*AsyncResult, error) {
	sampleEvery := e.opts.SampleEvery
	if sampleEvery < 1 {
		sampleEvery = e.n
	}
	res := &AsyncResult{
		Steps:     e.n * e.opts.Steps,
		SentBytes: e.sent,
		RecvBytes: e.recv,
		Samples:   make([]AsyncSample, 0, e.n*e.opts.Steps/sampleEvery+1),
	}
	// Every rank begins its first compute block at virtual time zero.
	for r := 0; r < e.n; r++ {
		dur := e.computeDur(r)
		e.freeAt[r] = dur
		e.q.Push(netsim.Event{Time: dur, Kind: netsim.EventComputeDone, Rank: int32(r), Peer: -1})
	}
	var (
		fleetDone int     // completed gossips fleet-wide
		lossSum   float64 // window loss accumulator
		lossN     int
		cumBytes  int64
		lastLoss  float64
	)
	for {
		ev, ok := e.q.Pop()
		if !ok {
			break
		}
		e.emit(ev)
		res.FinalTime = ev.Time
		e.nm.EventsTotal.Inc()
		e.nm.VirtualSeconds.Set(ev.Time)
		e.nm.EventQueueDepth.Set(int64(e.q.Len()))
		r := int(ev.Rank)
		switch ev.Kind {
		case netsim.EventComputeDone:
			step := int(ev.Round)
			loss, out, err := e.opts.Nodes[r].Compute(e.ctx(r, step))
			if err != nil {
				return nil, fmt.Errorf("engine: async rank %d step %d: %w", r, step, err)
			}
			lossSum += loss
			lossN++
			words, err := e.opts.Codecs[r].Encode(e.ctx(r, step), out)
			if err != nil {
				return nil, fmt.Errorf("engine: async rank %d step %d encode: %w", r, step, err)
			}
			p := e.nbrs[r][e.streams[r].Intn(len(e.nbrs[r]))]
			pend := &e.pending[r]
			pend.peer = p
			pend.step = step
			// The payload's one copy, taken before any Merge (DESIGN §2 "Sender aliasing").
			pend.words = append(pend.words[:0], words...)
			pend.bytes = e.opts.Codecs[r].WireBytes(words)
			mbps := e.opts.Bandwidth.MBps(r, p)
			// A passive rendezvous may have extended this rank's own
			// commitments while it computed; the new transfer queues behind
			// them.
			start := ev.Time
			if e.freeAt[r] > start {
				start = e.freeAt[r]
			}
			var total int64
			if e.opts.OneWay {
				// Push gossip: the receiver is never blocked, the sender's
				// NIC carries one payload.
				total = pend.bytes
			} else {
				// Rendezvous: also wait out the partner's committed
				// engagements (its current compute block or transfer), then
				// exchange payloads both ways on the shared link.
				if e.freeAt[p] > start {
					start = e.freeAt[p]
				}
				total = 2 * pend.bytes
			}
			end := start + float64(total)/(mbps*1e6)
			e.freeAt[r] = end
			if !e.opts.OneWay {
				e.freeAt[p] = end
			}
			e.q.Push(netsim.Event{Time: start, Kind: netsim.EventTransferStart,
				Rank: int32(r), Peer: int32(p), Round: int32(step), Bytes: total})
			e.q.Push(netsim.Event{Time: end, Kind: netsim.EventTransferComplete,
				Rank: int32(r), Peer: int32(p), Round: int32(step), Bytes: total})

		case netsim.EventTransferStart:
			// Bookkeeping only: the payload is committed, delivery happens at
			// the completion event.

		case netsim.EventTransferComplete:
			pend := &e.pending[r]
			p := pend.peer
			step := pend.step
			rctx, pctx := e.ctx(r, step), e.ctx(p, step)
			vals, err := e.opts.Codecs[r].Decode(pctx, pend.words)
			if err != nil {
				return nil, fmt.Errorf("engine: async rank %d step %d decode: %w", r, step, err)
			}
			e.sent[r] += pend.bytes
			e.recv[p] += pend.bytes
			cumBytes += pend.bytes
			e.em.WireBytesTotal.Add(2 * pend.bytes)
			if !e.opts.OneWay {
				// The rendezvous is atomic at delivery time: the partner
				// surrenders its *current* vector, and the initiator's payload
				// is frozen at its Compute. Both endpoints average the same
				// pair of states unless the initiator was itself merged
				// passively while this transfer was in flight: then it
				// averages its live state, the partner the frozen one.
				snap := e.opts.Nodes[p].Snapshot()
				back, err := e.opts.Codecs[p].Encode(pctx, snap)
				if err != nil {
					return nil, fmt.Errorf("engine: async rank %d step %d snapshot encode: %w", p, step, err)
				}
				backBytes := e.opts.Codecs[p].WireBytes(back)
				if backBytes != pend.bytes {
					return nil, fmt.Errorf("engine: async rendezvous %d↔%d payloads differ (%d vs %d bytes); bidirectional gossip needs symmetric codecs",
						r, p, pend.bytes, backBytes)
				}
				backVals, err := e.opts.Codecs[p].Decode(rctx, back)
				if err != nil {
					return nil, fmt.Errorf("engine: async rank %d step %d snapshot decode: %w", p, step, err)
				}
				e.sent[p] += backBytes
				e.recv[r] += backBytes
				cumBytes += backBytes
				e.em.WireBytesTotal.Add(2 * backBytes)
				if err := e.opts.Nodes[r].Merge(rctx, []PeerMsg{{From: p, Vals: backVals, Words: back, Bytes: backBytes}}); err != nil {
					return nil, fmt.Errorf("engine: async rank %d step %d merge: %w", r, step, err)
				}
			}
			if err := e.opts.Nodes[p].Merge(pctx, []PeerMsg{{From: r, Vals: vals, Words: pend.words, Bytes: pend.bytes}}); err != nil {
				return nil, fmt.Errorf("engine: async rank %d step %d merge: %w", p, step, err)
			}
			fleetDone++
			if step+1 < e.opts.Steps {
				// The next compute block queues behind any rendezvous the
				// rank was passively committed to during the transfer.
				begin := ev.Time
				if e.freeAt[r] > begin {
					begin = e.freeAt[r]
				}
				done := begin + e.computeDur(r)
				e.freeAt[r] = done
				e.q.Push(netsim.Event{Time: done, Kind: netsim.EventComputeDone,
					Rank: int32(r), Peer: -1, Round: int32(step + 1)})
			}
			if fleetDone%sampleEvery == 0 {
				if lossN > 0 {
					lastLoss = lossSum / float64(lossN)
				}
				res.Samples = append(res.Samples, AsyncSample{
					Steps: fleetDone, Time: ev.Time, MeanLoss: lastLoss, CumBytes: cumBytes,
				})
				lossSum, lossN = 0, 0
			}
		}
	}
	if lossN > 0 {
		lastLoss = lossSum / float64(lossN)
		res.Samples = append(res.Samples, AsyncSample{
			Steps: fleetDone, Time: res.FinalTime, MeanLoss: lastLoss, CumBytes: cumBytes,
		})
	}
	res.FinalLoss = lastLoss
	for r := 0; r < e.n; r++ {
		res.TotalBytes += e.sent[r] + e.recv[r]
	}
	return res, nil
}
