package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"sapspsgd/internal/netsim"
	"sapspsgd/internal/obs"
	"sapspsgd/internal/rng"
)

// This file is the engine's asynchronous driver: a discrete-event
// simulation over netsim's virtual-time EventQueue, in which ranks gossip
// without a global barrier. Each rank loops compute → gossip against the
// event clock; a slow or jittered rank delays only the partners that
// rendezvous with it, never the fleet. One goroutine drains the
// totally-ordered queue and makes every decision — partner draws, encodes,
// snapshots, merges, the ledgers and the samples — in pop order, and every
// random draw comes from seeded per-rank streams.
//
// Compute blocks run ahead of that clock on a pool of GOMAXPROCS worker
// goroutines, and nothing touches a rank between the start of its block and
// its EventComputeDone. A rendezvous (AD-PSGD) committed before the block is
// scheduled ends by its begin, one committed after starts no earlier than
// its done, and on a tie EventComputeDone sorts first; so a block goes to
// the pool once the last rendezvous committed before it is delivered. A
// push (Gradient Push) that lands while its receiver's block runs waits in
// that rank's inbox and merges at the block's EventComputeDone, after the
// rank's own step and push. Each rank's own call sequence is the serial
// one, so a run is bit-reproducible regardless of GOMAXPROCS or Go's
// scheduler — the property the async-determinism CI job replays. The driver
// fails closed: a rendezvous that would touch a running block, or an
// EventComputeDone whose block was never handed over, is an error.

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

// pendingTransfer is one gossip not yet merged: in flight, keyed by its
// initiator (a rank initiates at most one transfer at a time: it is blocked
// until delivery), or a push in its receiver's inbox, from peer.
type pendingTransfer struct {
	peer  int
	words []float64 // the Compute payload, read by a push only; an inbox holds a copy, since the sender's next block rewrites it
	bytes int64     // measured at Compute: it timed the transfer
	step  int
}

// computeJob is one compute block handed to the pool.
type computeJob struct{ rank, step int }

// computeResult is one compute block's outcome, carried from a pool worker
// to the rank's EventComputeDone.
type computeResult struct {
	loss float64
	out  []float64
	err  error
}

// rankAhead is one rank's run-ahead state.
type rankAhead struct {
	inflight int                // committed, undelivered rendezvous this rank is an endpoint of
	due      int                // those the scheduled block still waits for (> 0: not yet handed over)
	running  bool               // handed to the pool; EventComputeDone collects it
	step     int                // the scheduled block's gossip step
	done     chan computeResult // capacity 1: a rank has at most one block in flight
	inbox    []pendingTransfer  // pushes that landed during the running block, in delivery order
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
	ahead   []rankAhead
	jobs    chan computeJob
	mine    []float64 // a rendezvous initiator's live payload: the first Merge rewrites the initiator
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
		ahead:   make([]rankAhead, n),
		nm:      obs.Current().NetsimM(),
		em:      obs.Current().EngineM(),
	}
	base := rng.New(opts.Seed)
	for r := 0; r < n; r++ {
		e.streams[r] = base.Derive(0xa0000 + uint64(r))
		e.ahead[r].done = make(chan computeResult, 1)
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
		dur *= 1 + float64(c.Jitter*(2*float64(e.streams[rank].Float64())-1))
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

// startPool starts the compute pool and returns the function that stops it:
// blocks still queued are dropped, and it returns once every worker exits.
func (e *AsyncEngine) startPool() (stop func()) {
	e.jobs = make(chan computeJob, e.n) // at most one block per rank is queued
	var (
		halt atomic.Bool
		wg   sync.WaitGroup
	)
	for w := min(runtime.GOMAXPROCS(0), e.n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range e.jobs {
				if !halt.Load() {
					e.ahead[j.rank].done <- e.compute(j.rank, j.step)
				}
			}
		}()
	}
	return func() {
		halt.Store(true)
		close(e.jobs)
		wg.Wait()
	}
}

// compute runs one compute block on a pool worker. A panic there would take
// the process down with no caller to recover it, so it becomes the block's
// error.
func (e *AsyncEngine) compute(rank, step int) (res computeResult) {
	defer func() {
		if p := recover(); p != nil {
			res.err = fmt.Errorf("compute block panicked: %v", p)
		}
	}()
	res.loss, res.out, res.err = e.opts.Nodes[rank].Compute(e.ctx(rank, step))
	return res
}

// schedule records a rank's next compute block. It goes to the pool now if
// every rendezvous committed so far with this rank has been delivered, else
// at the delivery of the last of them.
func (e *AsyncEngine) schedule(rank, step int) {
	a := &e.ahead[rank]
	a.step, a.due = step, a.inflight
	if a.due == 0 {
		e.launch(rank)
	}
}

// launch hands a rank's scheduled block to the pool.
func (e *AsyncEngine) launch(rank int) {
	a := &e.ahead[rank]
	a.running = true
	e.jobs <- computeJob{rank, a.step}
}

// collect returns a rank's compute block from the pool.
func (e *AsyncEngine) collect(rank int) computeResult {
	a := &e.ahead[rank]
	if !a.running {
		return computeResult{err: fmt.Errorf("compute block never ran ahead: %d rendezvous committed before it still due", a.due)}
	}
	a.running = false
	return <-a.done
}

// merge decodes words with the sender's codec and merges them into rank.
func (e *AsyncEngine) merge(rank, from, step int, words []float64, bytes int64) error {
	ctx := e.ctx(rank, step)
	vals, err := e.opts.Codecs[from].Decode(ctx, words)
	if err == nil {
		err = e.opts.Nodes[rank].Merge(ctx, []PeerMsg{{From: from, Vals: vals, Words: words, Bytes: bytes}})
	}
	if err != nil {
		return fmt.Errorf("engine: async rank %d step %d merge from rank %d: %w", rank, step, from, err)
	}
	return nil
}

// live encodes a rendezvous endpoint's current vector, failing closed unless
// it is as large as the payload measured at Compute, which timed the transfer.
func (e *AsyncEngine) live(rank, step int, bytes int64) ([]float64, error) {
	words, err := e.opts.Codecs[rank].Encode(e.ctx(rank, step), e.opts.Nodes[rank].Snapshot())
	if err != nil {
		return nil, fmt.Errorf("engine: async rank %d step %d snapshot encode: %w", rank, step, err)
	}
	if got := e.opts.Codecs[rank].WireBytes(words); got != bytes {
		return nil, fmt.Errorf("engine: async rank %d step %d: live payload of %d bytes, %d at Compute; bidirectional gossip needs fixed-size payloads", rank, step, got, bytes)
	}
	return words, nil
}

// rendezvous averages the initiator r and its partner p atomically at
// delivery (Lian et al. 2018): both merge the pair of their live states.
func (e *AsyncEngine) rendezvous(r, p, step int, bytes int64) error {
	mine, err := e.live(r, step, bytes)
	if err != nil {
		return err
	}
	e.mine = append(e.mine[:0], mine...)
	theirs, err := e.live(p, step, bytes)
	if err != nil {
		return err
	}
	if err := e.merge(r, p, step, theirs, bytes); err != nil {
		return err
	}
	return e.merge(p, r, step, e.mine, bytes)
}

// push delivers r's Compute payload to p (Assran et al. 2019): it merges at
// once into an idle receiver, and waits in the inbox of a running one.
func (e *AsyncEngine) push(r, p int, pend *pendingTransfer) error {
	a := &e.ahead[p]
	if !a.running {
		return e.merge(p, r, pend.step, pend.words, pend.bytes)
	}
	a.inbox = slices.Grow(a.inbox, 1)[:len(a.inbox)+1] // an entry past len keeps its buffer
	m := &a.inbox[len(a.inbox)-1]
	m.peer, m.step, m.bytes, m.words = r, pend.step, pend.bytes, append(m.words[:0], pend.words...)
	return nil
}

// Run executes the whole asynchronous run and returns its measurements. The
// calling goroutine drains the event queue; compute blocks run on a pool
// that Run joins before it returns, errors included. It must be called
// exactly once.
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
	defer e.startPool()()
	// Every rank begins its first compute block at virtual time zero.
	for r := 0; r < e.n; r++ {
		e.freeAt[r] = e.computeDur(r)
		e.q.Push(netsim.Event{Time: e.freeAt[r], Kind: netsim.EventComputeDone, Rank: int32(r), Peer: -1})
		e.schedule(r, 0)
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
			block := e.collect(r)
			if block.err != nil {
				return nil, fmt.Errorf("engine: async rank %d step %d: %w", r, step, block.err)
			}
			lossSum += block.loss
			lossN++
			words, err := e.opts.Codecs[r].Encode(e.ctx(r, step), block.out)
			if err != nil {
				return nil, fmt.Errorf("engine: async rank %d step %d encode: %w", r, step, err)
			}
			p := e.nbrs[r][e.streams[r].Intn(len(e.nbrs[r]))]
			pend := &e.pending[r]
			pend.peer, pend.step, pend.words = p, step, words
			pend.bytes = e.opts.Codecs[r].WireBytes(words)
			// The pushes that landed during the block, after its own step and push.
			a := &e.ahead[r]
			for _, m := range a.inbox {
				if err := e.merge(r, m.peer, m.step, m.words, m.bytes); err != nil {
					return nil, err
				}
			}
			a.inbox = a.inbox[:0]
			// The transfer queues behind this rank's commitments, which a
			// passive rendezvous may have extended. A push's receiver is never
			// blocked; a rendezvous also waits out the partner's, then sends
			// a payload each way on the shared link.
			start, total := max(ev.Time, e.freeAt[r]), pend.bytes
			if !e.opts.OneWay {
				start, total = max(start, e.freeAt[p]), 2*total
				a.inflight++
				e.ahead[p].inflight++
			}
			end := start + float64(total)/(e.opts.Bandwidth.MBps(r, p)*1e6)
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
			p, step, b := pend.peer, pend.step, pend.bytes
			e.sent[r] += b
			e.recv[p] += b
			if e.opts.OneWay {
				if err := e.push(r, p, pend); err != nil {
					return nil, err
				}
			} else {
				for _, k := range [2]int{r, p} {
					if e.ahead[k].running {
						return nil, fmt.Errorf("engine: async rendezvous %d↔%d step %d at t=%v touches rank %d while its compute block runs ahead", r, p, step, ev.Time, k)
					}
				}
				if err := e.rendezvous(r, p, step, b); err != nil {
					return nil, err
				}
				e.sent[p] += b
				e.recv[r] += b
				b *= 2
				// A partner whose block is scheduled was waiting on this
				// delivery (any later one comes after its EventComputeDone).
				e.ahead[r].inflight--
				a := &e.ahead[p]
				a.inflight--
				if a.due > 0 {
					if a.due--; a.due == 0 {
						e.launch(p)
					}
				}
			}
			cumBytes += b
			e.em.WireBytesTotal.Add(2 * b)
			fleetDone++
			if step+1 < e.opts.Steps {
				// The next compute block queues behind any rendezvous the
				// rank was passively committed to during the transfer.
				done := max(ev.Time, e.freeAt[r]) + e.computeDur(r)
				e.freeAt[r] = done
				e.q.Push(netsim.Event{Time: done, Kind: netsim.EventComputeDone,
					Rank: int32(r), Peer: -1, Round: int32(step + 1)})
				e.schedule(r, step+1)
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
