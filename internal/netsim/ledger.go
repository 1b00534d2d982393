package netsim

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"sapspsgd/internal/obs"
)

// Ledger accounts for every byte each worker sends and receives and converts
// payloads into simulated communication time using a Bandwidth environment.
// Rounds are synchronous (as in the paper): a round's wall time is the
// maximum over workers of that worker's communication time in the round.
//
// Underneath the per-round accounting the ledger is an event simulator:
// every charge schedules transfer-start/transfer-complete events for each
// endpoint's NIC on a virtual-time EventQueue (a rank's transfers within a
// round serialize back to back from the round's start, which is exactly the
// additive time model the per-round totals implement), and EndRound drains
// the queue in total order into the attached sink. The per-round arithmetic
// is unchanged — same charges, same order, same float operations — so the
// totals are bit-identical to the historical per-round ledger; the event
// stream is a second, equivalent view of the same virtual timeline (the
// equivalence suite in internal/algos pins both claims).
type Ledger struct {
	bw *Bandwidth
	// LatencySec, when set, adds a fixed per-message latency to each
	// exchange direction and server transfer — a realism extension beyond
	// the paper's pure-bandwidth time model (geo-distributed RTTs are tens
	// of milliseconds, which matters for the small control-size payloads
	// SAPS sends at high compression ratios).
	LatencySec float64
	// Cumulative per-worker totals.
	sentBytes []int64
	recvBytes []int64
	// Per-round scratch.
	roundTime []float64
	// Accumulated simulated wall-clock communication time (seconds).
	totalTime float64
	// Server-side traffic for centralized baselines (bytes).
	serverSent int64 // bytes the server sent (workers' downstream)
	serverRecv int64 // bytes the server received (workers' upstream)
	rounds     int
	// Event view of the round under construction.
	q           EventQueue
	sink        *EventLog
	completions []float64
	// nm is the observability sink (zero value = disabled), captured once
	// at construction.
	nm obs.NetsimMetrics
}

// NewLedger returns a ledger over the given bandwidth environment.
func NewLedger(bw *Bandwidth) *Ledger {
	return &Ledger{
		bw:          bw,
		sentBytes:   make([]int64, bw.N),
		recvBytes:   make([]int64, bw.N),
		roundTime:   make([]float64, bw.N),
		completions: make([]float64, bw.N),
		nm:          obs.Current().NetsimM(),
	}
}

// SetSink attaches an event log: from now on EndRound drains each round's
// transfer events into it in virtual-time total order. Pass nil to detach.
func (l *Ledger) SetSink(sink *EventLog) { l.sink = sink }

// schedule pushes one endpoint's NIC busy interval for a transfer of the
// given total payload: the rank's transfers serialize from the round's start
// (the additive model), so the interval is [clock+before, clock+after) on
// the absolute virtual timeline.
func (l *Ledger) schedule(rank, peer int, before, after float64, bytes int64) {
	l.q.Push(Event{
		Time: l.totalTime + before, Kind: EventTransferStart,
		Rank: int32(rank), Peer: int32(peer), Round: int32(l.rounds), Bytes: bytes,
	})
	l.q.Push(Event{
		Time: l.totalTime + after, Kind: EventTransferComplete,
		Rank: int32(rank), Peer: int32(peer), Round: int32(l.rounds), Bytes: bytes,
	})
}

// Exchange records a bidirectional transfer between workers i and j in the
// current round: i sends sendBytes to j and receives recvBytes from j. Both
// directions ride the same (symmetric) link, and each worker's round time
// grows by its transfer volume over the link bandwidth.
func (l *Ledger) Exchange(i, j int, sendBytes, recvBytes int64) {
	if i == j {
		panic(fmt.Sprintf("netsim: self exchange on worker %d", i))
	}
	l.sentBytes[i] += sendBytes
	l.recvBytes[j] += sendBytes
	l.sentBytes[j] += recvBytes
	l.recvBytes[i] += recvBytes
	mbps := l.bw.MBps(i, j)
	if mbps > 0 {
		ti, tj := l.roundTime[i], l.roundTime[j]
		secs := float64(sendBytes+recvBytes)/(mbps*1e6) + l.LatencySec
		l.roundTime[i] += secs
		l.roundTime[j] += secs
		l.schedule(i, j, ti, l.roundTime[i], sendBytes+recvBytes)
		l.schedule(j, i, tj, l.roundTime[j], sendBytes+recvBytes)
	} else {
		// A zero-bandwidth link should never carry traffic; make it visible.
		panic(fmt.Sprintf("netsim: exchange over zero-bandwidth link %d-%d", i, j))
	}
}

// ServerTransfer records traffic between worker i and a central server (used
// by the PS-architecture baselines). serverMBps is the server's link speed to
// that worker. The event view carries the worker endpoint only (Peer -1):
// the server is not a rank and its aggregate NIC is not modelled, exactly as
// in the per-round totals.
func (l *Ledger) ServerTransfer(i int, upBytes, downBytes int64, serverMBps float64) {
	l.sentBytes[i] += upBytes
	l.recvBytes[i] += downBytes
	l.serverRecv += upBytes
	l.serverSent += downBytes
	if serverMBps > 0 {
		ti := l.roundTime[i]
		l.roundTime[i] += float64(upBytes+downBytes)/(serverMBps*1e6) + l.LatencySec
		l.schedule(i, -1, ti, l.roundTime[i], upBytes+downBytes)
	}
}

// EndRound closes the current round, adding its wall time (max over workers)
// to the cumulative total, and returns that wall time in seconds. The
// round's scheduled events drain into the sink (when one is attached) in
// virtual-time total order; every drained event's time is ≤ the new clock,
// so the sink's stream is globally ordered across rounds.
func (l *Ledger) EndRound() float64 {
	maxT := 0.0
	for i, t := range l.roundTime {
		if t > maxT {
			maxT = t
		}
		l.completions[i] = l.totalTime + t
		l.roundTime[i] = 0
	}
	l.nm.EventsTotal.Add(int64(l.q.Len()))
	if l.sink != nil {
		for {
			e, ok := l.q.Pop()
			if !ok {
				break
			}
			l.sink.Append(e)
		}
	} else {
		l.q.Reset()
	}
	l.totalTime += maxT
	l.rounds++
	l.nm.VirtualSeconds.Set(l.totalTime)
	l.nm.EventQueueDepth.Set(int64(l.q.Len()))
	return maxT
}

// RoundCompletions returns each rank's absolute virtual completion time of
// the most recently closed round (the clock at that round's start plus the
// rank's communication time in it) — the per-rank virtual-time completion
// series behind loss-vs-simtime figures. The slice is reused across rounds.
func (l *Ledger) RoundCompletions() []float64 { return l.completions }

// Clock returns the current virtual time: identical to TotalTime, named for
// the event-simulator reading of the same number.
func (l *Ledger) Clock() float64 { return l.totalTime }

// Rounds returns the number of completed rounds.
func (l *Ledger) Rounds() int { return l.rounds }

// TotalTime returns the cumulative simulated communication time in seconds.
func (l *Ledger) TotalTime() float64 { return l.totalTime }

// WorkerBytes returns the cumulative bytes sent and received by worker i.
func (l *Ledger) WorkerBytes(i int) (sent, recv int64) {
	return l.sentBytes[i], l.recvBytes[i]
}

// ServerBytes returns the cumulative traffic through the central server
// (bytes sent plus received).
func (l *Ledger) ServerBytes() int64 { return l.serverSent + l.serverRecv }

// MeanWorkerTrafficMB returns the mean per-worker traffic in megabytes.
func (l *Ledger) MeanWorkerTrafficMB() float64 {
	var sum int64
	for i := range l.sentBytes {
		sum += l.sentBytes[i] + l.recvBytes[i]
	}
	return float64(sum) / float64(len(l.sentBytes)) / 1e6
}

// LedgerState is the ledger's serialized round-boundary checkpoint form
// (engine.LedgerCheckpointer): cumulative per-worker and server byte totals
// plus the simulated clock. Per-round scratch is zero at a boundary and is
// not captured.
type LedgerState struct {
	SentBytes, RecvBytes   []int64
	TotalTime              float64
	ServerSent, ServerRecv int64
	Rounds                 int
}

// CaptureState implements engine.LedgerCheckpointer. It must be called at a
// round boundary (after EndRound).
func (l *Ledger) CaptureState() ([]byte, error) {
	var buf bytes.Buffer
	st := LedgerState{
		SentBytes:  append([]int64(nil), l.sentBytes...),
		RecvBytes:  append([]int64(nil), l.recvBytes...),
		TotalTime:  l.totalTime,
		ServerSent: l.serverSent,
		ServerRecv: l.serverRecv,
		Rounds:     l.rounds,
	}
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreState implements engine.LedgerCheckpointer: it restores totals into
// a freshly constructed ledger over the same environment.
func (l *Ledger) RestoreState(data []byte) error {
	var st LedgerState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	if len(st.SentBytes) != len(l.sentBytes) {
		return fmt.Errorf("netsim: ledger state for %d workers, have %d", len(st.SentBytes), len(l.sentBytes))
	}
	copy(l.sentBytes, st.SentBytes)
	copy(l.recvBytes, st.RecvBytes)
	l.totalTime = st.TotalTime
	l.serverSent = st.ServerSent
	l.serverRecv = st.ServerRecv
	l.rounds = st.Rounds
	return nil
}

// ConservationOK verifies that every byte sent by some party was received by
// another: workers' sent + server's sent == workers' received + server's
// received. A ledger sanity invariant checked by the integration tests.
func (l *Ledger) ConservationOK() bool {
	var s, r int64
	for i := range l.sentBytes {
		s += l.sentBytes[i]
		r += l.recvBytes[i]
	}
	return s+l.serverSent == r+l.serverRecv
}
