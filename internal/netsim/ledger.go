package netsim

import (
	"fmt"

	"sapspsgd/internal/obs"
	"sapspsgd/internal/tensor"
)

// Ledger accounts for every byte each worker sends and receives and converts
// payloads into simulated communication time using a Bandwidth environment.
// Rounds are synchronous (as in the paper): a round's wall time is the
// maximum over workers of that worker's communication time in the round, and
// a worker's transfers within a round add up back to back. The ledger keeps
// no timeline below the round: the one event simulator is the engine's
// barrier-free driver (engine.NewAsync).
type Ledger struct {
	bw *Bandwidth
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
	// nm is the observability sink (zero value = disabled), captured once
	// at construction.
	nm obs.NetsimMetrics
}

// NewLedger returns a ledger over the given bandwidth environment.
func NewLedger(bw *Bandwidth) *Ledger {
	return &Ledger{
		bw:        bw,
		sentBytes: make([]int64, bw.N),
		recvBytes: make([]int64, bw.N),
		roundTime: make([]float64, bw.N),
		nm:        obs.Current().NetsimM(),
	}
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
		secs := float64(sendBytes+recvBytes) / (mbps * 1e6)
		l.roundTime[i] += secs
		l.roundTime[j] += secs
	} else {
		// A zero-bandwidth link should never carry traffic; make it visible.
		panic(fmt.Sprintf("netsim: exchange over zero-bandwidth link %d-%d", i, j))
	}
}

// ServerTransfer records traffic between worker i and a central server (used
// by the PS-architecture baselines). serverMBps is the server's link speed to
// that worker. The server is not a rank and its aggregate NIC is not
// modelled: only the worker's round time grows.
func (l *Ledger) ServerTransfer(i int, upBytes, downBytes int64, serverMBps float64) {
	l.sentBytes[i] += upBytes
	l.recvBytes[i] += downBytes
	l.serverRecv += upBytes
	l.serverSent += downBytes
	if serverMBps > 0 {
		l.roundTime[i] += float64(upBytes+downBytes) / (serverMBps * 1e6)
	}
}

// EndRound closes the current round, adding its wall time (max over workers,
// scanned in index order) to the cumulative total, and returns that wall time
// in seconds.
func (l *Ledger) EndRound() float64 {
	maxT := 0.0
	for i, t := range l.roundTime {
		if t > maxT {
			maxT = t
		}
		l.roundTime[i] = 0
	}
	l.totalTime += maxT
	l.rounds++
	l.nm.VirtualSeconds.Set(l.totalTime)
	return maxT
}

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

// AppendState implements engine.Stateful: three sections of
// words — the per-worker sent totals, the received totals, then the simulated
// clock's bits, the server's sent and received bytes and the round count.
// Per-round scratch is zero at a boundary and is not captured. It must be
// called at a round boundary (after EndRound).
func (l *Ledger) AppendState(dst []byte) ([]byte, error) {
	n := 8 * len(l.sentBytes)
	dst = tensor.Grow(dst, 2*tensor.SectionSize(n)+tensor.SectionSize(ledgerScalars))
	dst = tensor.AppendIntVector(tensor.AppendIntVector(dst, l.sentBytes), l.recvBytes)
	dst = tensor.AppendWords(tensor.BeginSection(dst, ledgerScalars), []float64{l.totalTime})
	return tensor.AppendInts(dst, []int64{l.serverSent, l.serverRecv, int64(l.rounds)}), nil
}

// ledgerScalars is the size of the state's last section.
const ledgerScalars = 4 * 8

// RestoreState implements engine.Stateful: it restores totals into
// a freshly constructed ledger over the same environment. Every section's
// length is checked against this ledger before anything is written.
func (l *Ledger) RestoreState(data []byte) error {
	names := [...]string{"sent bytes", "received bytes", "totals"}
	sizes := [...]int{8 * len(l.sentBytes), 8 * len(l.recvBytes), ledgerScalars}
	var secs [3][]byte
	for i := range secs {
		var err error
		if secs[i], data, err = tensor.CutSection(data); err != nil {
			return fmt.Errorf("netsim: ledger state %s: %w", names[i], err)
		}
		if len(secs[i]) != sizes[i] {
			return fmt.Errorf("netsim: ledger state %s: %d bytes, this ledger over %d workers keeps %d", names[i], len(secs[i]), len(l.sentBytes), sizes[i])
		}
	}
	if err := tensor.NoMoreSections(data); err != nil {
		return fmt.Errorf("netsim: ledger state: %w", err)
	}
	// Every length is checked: the decodes below cannot fail.
	tensor.DecodeInts(l.sentBytes, secs[0])
	tensor.DecodeInts(l.recvBytes, secs[1])
	var clock [1]float64
	var totals [3]int64
	tensor.DecodeWords(clock[:], secs[2][:8])
	tensor.DecodeInts(totals[:], secs[2][8:])
	l.totalTime = clock[0]
	l.serverSent, l.serverRecv, l.rounds = totals[0], totals[1], int(totals[2])
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
