package engine

import (
	"fmt"

	"sapspsgd/internal/tensor"
)

// CountingLedger is the accounting backend for deployments without a
// bandwidth model (in-memory runs, real TCP where time is physical): it
// tallies exact per-worker and per-round byte totals with zero simulated
// time. An optional Inner ledger is charged in lockstep, so a run can keep
// byte-identical counters alongside a netsim time model. Like *netsim.Ledger
// it is not safe for concurrent use; the Driver charges it from the
// coordinator loop only.
type CountingLedger struct {
	// Inner, when non-nil, receives every Exchange/EndRound call too.
	Inner Ledger

	sent, recv []int64
	roundBytes []int64
	cur        int64
	total      int64
}

func (l *CountingLedger) grow(i int) {
	if i < len(l.sent) {
		return
	}
	// One bulk extension instead of element-at-a-time appends: the first
	// Exchange of a fleet run typically names the highest rank within a few
	// rounds, after which this is a bounds check and nothing else.
	l.sent = append(l.sent, make([]int64, i+1-len(l.sent))...)
	l.recv = append(l.recv, make([]int64, i+1-len(l.recv))...)
}

// Exchange implements Ledger.
func (l *CountingLedger) Exchange(i, j int, sendBytes, recvBytes int64) {
	l.grow(max(i, j))
	l.sent[i] += sendBytes
	l.recv[j] += sendBytes
	l.sent[j] += recvBytes
	l.recv[i] += recvBytes
	l.cur += sendBytes + recvBytes
	if l.Inner != nil {
		l.Inner.Exchange(i, j, sendBytes, recvBytes)
	}
}

// EndRound implements Ledger, returning the inner ledger's round time (0
// without one).
func (l *CountingLedger) EndRound() float64 {
	l.roundBytes = append(l.roundBytes, l.cur)
	l.total += l.cur
	l.cur = 0
	if l.Inner != nil {
		return l.Inner.EndRound()
	}
	return 0
}

// RoundBytes returns the total bytes moved in each completed round.
func (l *CountingLedger) RoundBytes() []int64 { return l.roundBytes }

// TotalBytes returns the cumulative bytes moved across all rounds.
func (l *CountingLedger) TotalBytes() int64 { return l.total }

// WorkerBytes returns worker i's cumulative sent and received bytes.
func (l *CountingLedger) WorkerBytes(i int) (sent, recv int64) {
	l.grow(i)
	return l.sent[i], l.recv[i]
}

// Rounds returns the number of completed rounds.
func (l *CountingLedger) Rounds() int { return len(l.roundBytes) }

// AppendState implements Stateful: three sections of words, the
// per-rank sent and received totals and the per-round series (the running
// total is its sum). It must be called at a round boundary; Inner ledgers are
// not captured — chain checkpointable ledgers and capture each.
func (l *CountingLedger) AppendState(dst []byte) ([]byte, error) {
	size := tensor.SectionSize(8*len(l.sent)) + tensor.SectionSize(8*len(l.recv)) + tensor.SectionSize(8*len(l.roundBytes))
	dst = tensor.AppendIntVector(tensor.Grow(dst, size), l.sent)
	dst = tensor.AppendIntVector(dst, l.recv)
	return tensor.AppendIntVector(dst, l.roundBytes), nil
}

// RestoreState implements Stateful. The sent and received totals
// must cover the same ranks, and as many as this ledger already tracks unless
// it tracks none yet; a state that does not fit is refused whole.
func (l *CountingLedger) RestoreState(data []byte) error {
	var vecs [3][]int64
	for i, name := range [...]string{"sent", "received", "round"} {
		sec, rest, err := tensor.CutSection(data)
		if err == nil {
			vecs[i] = make([]int64, len(sec)/8)
			err = tensor.DecodeInts(vecs[i], sec)
		}
		if err != nil {
			return fmt.Errorf("engine: ledger state %s bytes: %w", name, err)
		}
		data = rest
	}
	if err := tensor.NoMoreSections(data); err != nil {
		return fmt.Errorf("engine: ledger state: %w", err)
	}
	sent, recv, rounds := vecs[0], vecs[1], vecs[2]
	switch {
	case len(recv) != len(sent):
		return fmt.Errorf("engine: ledger state totals %d ranks sent and %d received", len(sent), len(recv))
	case len(l.sent) != 0 && len(sent) != len(l.sent):
		return fmt.Errorf("engine: ledger state for %d ranks, the ledger tracks %d", len(sent), len(l.sent))
	}
	l.sent = append(l.sent[:0], sent...)
	l.recv = append(l.recv[:0], recv...)
	l.roundBytes = append(l.roundBytes[:0], rounds...)
	l.cur, l.total = 0, 0
	for _, b := range rounds {
		l.total += b
	}
	return nil
}
