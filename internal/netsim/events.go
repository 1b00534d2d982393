package netsim

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// This file holds the event vocabulary of the repository's one event
// simulator, the engine's barrier-free driver (engine.NewAsync): a priority
// queue of virtual-time events with a *total* order, so any run that feeds
// the queue the same events drains them in exactly the same sequence no
// matter how the events were produced (goroutine interleaving, insertion
// order, GOMAXPROCS), and the log that serializes the drained sequence.
// Synchronous rounds need no timeline below the round: the Ledger accounts
// for them directly.

// EventKind discriminates the event types the simulator schedules.
type EventKind uint8

// The event kinds, in their tie-breaking order (an accident of the iota
// numbering, but pinned by the serialization format and the property tests:
// compute-done before transfer-start before transfer-complete at equal time
// and ranks).
const (
	// EventComputeDone marks a rank finishing one local compute block.
	EventComputeDone EventKind = iota
	// EventTransferStart marks a rank's NIC beginning a transfer.
	EventTransferStart
	// EventTransferComplete marks the transfer's payload fully delivered.
	EventTransferComplete
)

// String returns the kind's stable wire name.
func (k EventKind) String() string {
	switch k {
	case EventComputeDone:
		return "compute-done"
	case EventTransferStart:
		return "transfer-start"
	case EventTransferComplete:
		return "transfer-complete"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one point in virtual time. Its identity — (Time, Kind, Rank,
// Peer, Round, Bytes) — doubles as its total-order sort key, so the drain
// order of a queue is a pure function of the event *set*, never of the
// insertion order. Nothing in an Event references wall-clock time or memory
// addresses; two processes that schedule the same virtual work produce
// byte-identical event streams.
type Event struct {
	// Time is the event's virtual time in seconds.
	Time float64
	// Kind is the event type.
	Kind EventKind
	// Rank is the primary endpoint: the computing rank, or the transfer's
	// charged endpoint.
	Rank int32
	// Peer is the other transfer endpoint, or -1 (compute events).
	Peer int32
	// Round is the initiator's gossip-step index.
	Round int32
	// Bytes is the transfer's payload size (0 for compute events).
	Bytes int64
}

// eventLess is the total order: virtual time first, then the stable
// composite key (kind, rank, peer, round, bytes). Every field of the event
// participates, so distinct events never compare equal and the order cannot
// depend on how the events reached the queue.
func eventLess(a, b Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	if a.Peer != b.Peer {
		return a.Peer < b.Peer
	}
	if a.Round != b.Round {
		return a.Round < b.Round
	}
	return a.Bytes < b.Bytes
}

// EventQueue is a binary min-heap of events under the total order above.
// The zero value is ready to use. Pop order is deterministic and
// insertion-order invariant; the heap retains its capacity as it fills and
// drains, so a driver reusing one queue stays allocation-free in steady
// state.
type EventQueue struct {
	h []Event
}

// Len returns the number of queued events.
func (q *EventQueue) Len() int { return len(q.h) }

// Push schedules an event.
func (q *EventQueue) Push(e Event) {
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(q.h[i], q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// Pop removes and returns the minimum event; ok is false on an empty queue.
func (q *EventQueue) Pop() (e Event, ok bool) {
	n := len(q.h)
	if n == 0 {
		return Event{}, false
	}
	e = q.h[0]
	q.h[0] = q.h[n-1]
	q.h = q.h[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && eventLess(q.h[l], q.h[min]) {
			min = l
		}
		if r < n && eventLess(q.h[r], q.h[min]) {
			min = r
		}
		if min == i {
			return e, true
		}
		q.h[i], q.h[min] = q.h[min], q.h[i]
		i = min
	}
}

// EventLog accumulates drained events in pop order. Its serialized forms
// are deterministic: two runs that drain the same event sequence produce
// byte-identical logs, which is what the CI determinism gate compares.
type EventLog struct {
	// Events is the drained sequence, in virtual-time total order.
	Events []Event
}

// Append records one event.
func (l *EventLog) Append(e Event) { l.Events = append(l.Events, e) }

// Bytes returns the log in the exact-replay text form: one line per event,
// the virtual time as the hex IEEE-754 bit pattern (float formatting never
// rounds two distinct times onto one string). This is the byte-comparison
// artifact of the determinism gate.
func (l *EventLog) Bytes() []byte {
	var buf []byte
	for _, e := range l.Events {
		buf = strconv.AppendUint(buf, math.Float64bits(e.Time), 16)
		buf = append(buf, ' ')
		buf = append(buf, e.Kind.String()...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.Rank), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.Peer), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.Round), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, e.Bytes, 10)
		buf = append(buf, '\n')
	}
	return buf
}

// WriteCSV renders the log as a human-readable CSV: readable decimal times
// (9 fractional digits) alongside the exact bit pattern, for the uploaded
// event-trace artifact.
func (l *EventLog) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "time_sec,time_bits,kind,rank,peer,round,bytes\n"); err != nil {
		return err
	}
	buf := make([]byte, 0, 96)
	for _, e := range l.Events {
		buf = buf[:0]
		buf = strconv.AppendFloat(buf, e.Time, 'f', 9, 64)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, math.Float64bits(e.Time), 16)
		buf = append(buf, ',')
		buf = append(buf, e.Kind.String()...)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(e.Rank), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(e.Peer), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(e.Round), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, e.Bytes, 10)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
