// Package memtransport is the in-process engine backend: nodes hand their
// encoded payloads over through per-directed-pair FIFO channels, with no
// wire format and no time model. It is the backend behind every
// internal/algos simulation; pair it with engine.CountingLedger for pure
// traffic totals or with a *netsim.Ledger for
// bandwidth-accounted time.
package memtransport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sapspsgd/internal/obs"
)

// denseSlotLimit bounds the dense slot array: fleets with at most this many
// directed pairs get a flat preallocated pointer array (one atomic load per
// slot lookup, no locks); larger fleets fall back to sharded-mutex striping
// so a sparse communication pattern does not pin O(n²) memory. 2²⁰ pointers
// is 8 MB — n ≤ 1024 stays dense, which covers every fleet the repository's
// scenarios run in one process.
const denseSlotLimit = 1 << 20

// slotStripes is the stripe count of the large-n fallback. Power of two so
// the stripe index is a shift-free mask; 64 stripes keep the per-stripe
// mutexes effectively uncontended at realistic shard counts.
const slotStripes = 64

// Hub carries payloads between in-process ranks. Send deposits the caller's
// payload in the self→peer slot; Recv takes the oldest deposit from the
// peer→self slot, blocking until there is one. Slots are FIFO per directed
// pair, so a pattern may use the same pair several times within a round (hub
// pull/push, collective reduce+gather). The engine's round barrier
// guarantees all slots are drained before the next round starts. Payload
// slices are handed over by reference — the channel send is the
// happens-before edge that makes the peer's read race-free, and the sharded
// runtime's phase barriers keep the sender from rewriting the buffer before
// the receiver is done with it (engine.Transport).
//
// Slot lookup is lock-free for fleets up to 1024 nodes: the hub preallocates
// a dense per-directed-pair pointer array and materializes each pair's
// channel at most once with a compare-and-swap, so the steady-state path is
// a single atomic load — no mutex, no map hash. Larger fleets stripe the
// lazily-built pair map across independently locked shards.
type Hub struct {
	n int
	// dense[from*n+to] is the from→to channel, nil until first use.
	// Non-nil only when n*n <= denseSlotLimit.
	dense []atomic.Pointer[chan []float64]
	// stripes is the sparse fallback for large n.
	stripes []slotStripe
	// wait observes how long blocking receives stall for the peer's
	// deposit; nil (observability off) costs one pointer check per recv.
	wait *obs.Histogram
}

// slotStripe is one lock shard of the sparse slot table.
type slotStripe struct {
	mu    sync.Mutex
	slots map[uint64]chan []float64
}

// NewHub returns a hub for n nodes. A single-node hub is legal — it can
// never be asked to send, and Send rejects any peer it is asked for.
func NewHub(n int) *Hub {
	if n < 1 {
		panic(fmt.Sprintf("memtransport: hub of %d", n))
	}
	h := &Hub{n: n, wait: obs.Current().EngineM().RendezvousWaitSeconds}
	if n*n <= denseSlotLimit {
		h.dense = make([]atomic.Pointer[chan []float64], n*n)
	} else {
		h.stripes = make([]slotStripe, slotStripes)
		for i := range h.stripes {
			h.stripes[i].slots = make(map[uint64]chan []float64)
		}
	}
	return h
}

// slot returns (lazily creating) the from→to channel. A small buffer keeps a
// sender from blocking on its own deposit. A directed pair can briefly hold
// two — the collective deposits its next butterfly chunk while the peer is
// still draining the previous phase's — so the capacity is 2.
func (h *Hub) slot(from, to int) chan []float64 {
	if h.dense != nil {
		p := &h.dense[from*h.n+to]
		if c := p.Load(); c != nil {
			return *c
		}
		// First meeting of this pair: materialize the channel. A losing CAS
		// means a concurrent caller won; both sides then share the winner's.
		c := make(chan []float64, 2)
		if p.CompareAndSwap(nil, &c) {
			return c
		}
		return *p.Load()
	}
	key := uint64(uint32(from))<<32 | uint64(uint32(to))
	// Fibonacci mixing spreads sequential rank pairs across stripes.
	st := &h.stripes[(key*0x9e3779b97f4a7c15)>>(64-6)&(slotStripes-1)]
	st.mu.Lock()
	c, ok := st.slots[key]
	if !ok {
		c = make(chan []float64, 2)
		st.slots[key] = c
	}
	st.mu.Unlock()
	return c
}

func (h *Hub) check(self, peer int) error {
	if self == peer || self < 0 || self >= h.n || peer < 0 || peer >= h.n {
		return fmt.Errorf("memtransport: worker %d exchanging with %d", self, peer)
	}
	return nil
}

// recv drains the from→to FIFO, timing the blocked wait when
// observability is on.
func (h *Hub) recv(from, to int) []float64 {
	c := h.slot(from, to)
	if h.wait == nil {
		return <-c
	}
	start := time.Now()
	p := <-c
	h.wait.Observe(time.Since(start).Seconds())
	return p
}

// Send implements engine.Transport: a one-way deposit into the self→peer
// FIFO. The sharded runtime's phase barriers guarantee at most two deposits
// per directed pair are ever outstanding, so Send never blocks.
func (h *Hub) Send(round, self, peer int, payload []float64) error {
	if err := h.check(self, peer); err != nil {
		return err
	}
	h.slot(self, peer) <- payload
	return nil
}

// Recv implements engine.Transport: take the oldest payload from the
// peer→self FIFO, blocking until the peer's Send (only fused phases ever
// wait; across a barrier the deposit is already there).
func (h *Hub) Recv(round, self, peer int) ([]float64, error) {
	if err := h.check(self, peer); err != nil {
		return nil, err
	}
	return h.recv(peer, self), nil
}
