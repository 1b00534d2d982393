package algos

import (
	"bytes"
	"encoding/gob"
	"testing"

	"sapspsgd/internal/netsim"
)

// This file is the sync-on-event equivalence suite (the same bar as the
// three-backend tests): every existing synchronous recipe, run against the
// event-driven netsim ledger, must be bit-identical in trajectory and
// byte-identical in ledger to the historical per-round charging path. The
// per-round reference below is the pre-refactor ledger arithmetic, kept
// verbatim; the tee feeds both ledgers the identical charge sequence.

// refLedger is the historical per-round netsim arithmetic: additive
// per-rank round time, EndRound takes the max in index order. Every float
// operation matches the pre-refactor Ledger exactly.
type refLedger struct {
	bw         *netsim.Bandwidth
	latency    float64
	sent, recv []int64
	roundTime  []float64
	totalTime  float64
	serverSent int64
	serverRecv int64
	rounds     int
}

func newRefLedger(bw *netsim.Bandwidth) *refLedger {
	return &refLedger{
		bw:        bw,
		sent:      make([]int64, bw.N),
		recv:      make([]int64, bw.N),
		roundTime: make([]float64, bw.N),
	}
}

func (l *refLedger) Exchange(i, j int, sendBytes, recvBytes int64) {
	l.sent[i] += sendBytes
	l.recv[j] += sendBytes
	l.sent[j] += recvBytes
	l.recv[i] += recvBytes
	mbps := l.bw.MBps(i, j)
	secs := float64(sendBytes+recvBytes)/(mbps*1e6) + l.latency
	l.roundTime[i] += secs
	l.roundTime[j] += secs
}

func (l *refLedger) ServerTransfer(i int, upBytes, downBytes int64, serverMBps float64) {
	l.sent[i] += upBytes
	l.recv[i] += downBytes
	l.serverRecv += upBytes
	l.serverSent += downBytes
	if serverMBps > 0 {
		l.roundTime[i] += float64(upBytes+downBytes)/(serverMBps*1e6) + l.latency
	}
}

func (l *refLedger) EndRound() float64 {
	maxT := 0.0
	for i, t := range l.roundTime {
		if t > maxT {
			maxT = t
		}
		l.roundTime[i] = 0
	}
	l.totalTime += maxT
	l.rounds++
	return maxT
}

// state renders the reference in the event ledger's checkpoint schema, for
// the byte-identity comparison against CaptureState.
func (l *refLedger) state() netsim.LedgerState {
	return netsim.LedgerState{
		SentBytes:  append([]int64(nil), l.sent...),
		RecvBytes:  append([]int64(nil), l.recv...),
		TotalTime:  l.totalTime,
		ServerSent: l.serverSent,
		ServerRecv: l.serverRecv,
		Rounds:     l.rounds,
	}
}

// teeLedger feeds the identical charge sequence to the event-driven ledger
// and the per-round reference. For hub algorithms it replays the
// engine-side hubLedger mapping (which only engages over a bare
// *netsim.Ledger), so both sides see the same ServerTransfer calls a plain
// run would.
type teeLedger struct {
	real      *netsim.Ledger
	ref       *refLedger
	server    int
	links     []float64
	wallReal  []float64
	wallRef   []float64
	roundsRun int
}

func (t *teeLedger) Exchange(i, j int, sendBytes, recvBytes int64) {
	if t.server >= 0 && (i == t.server || j == t.server) {
		worker, up, down := j, recvBytes, sendBytes
		if j == t.server {
			worker, up, down = i, sendBytes, recvBytes
		}
		t.real.ServerTransfer(worker, up, down, t.links[worker])
		t.ref.ServerTransfer(worker, up, down, t.links[worker])
		return
	}
	t.real.Exchange(i, j, sendBytes, recvBytes)
	t.ref.Exchange(i, j, sendBytes, recvBytes)
}

func (t *teeLedger) EndRound() float64 {
	a := t.real.EndRound()
	b := t.ref.EndRound()
	t.wallReal = append(t.wallReal, a)
	t.wallRef = append(t.wallRef, b)
	t.roundsRun++
	return a
}

// hubChassis is the algorithm's chassis (its server rank and link table
// drive the tee's hub mapping).
func hubChassis(alg Algorithm) *InProc {
	a, _ := alg.(*InProc)
	return a
}

// TestEventLedgerEquivalence: for every synchronous recipe, a run on the
// event-driven ledger (with the event sink attached) is bit-identical in
// model trajectory to a plain run, its per-round wall times and cumulative
// clock match the per-round reference arithmetic bit for bit, and its
// serialized checkpoint is byte-identical to the reference's.
func TestEventLedgerEquivalence(t *testing.T) {
	const n, rounds = 8, 5
	for _, b := range allBaselineBuilders(n) {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			fcA, bw, _ := testSetup(t, n)
			fcB, _, _ := testSetup(t, n)
			algA := b.build(fcA, bw)
			algB := b.build(fcB, bw)

			// Run A: event ledger with sink, driven exactly as production
			// runs drive it.
			ledA := netsim.NewLedger(bw)
			var log netsim.EventLog
			ledA.SetSink(&log)

			// Run B: the tee replays the identical charges into a second
			// event ledger and the per-round reference.
			tee := &teeLedger{real: netsim.NewLedger(bw), ref: newRefLedger(bw), server: -1}
			if ea := hubChassis(algB); ea != nil && ea.server >= 0 {
				tee.server = ea.server
				tee.links = ea.links
			}

			for r := 0; r < rounds; r++ {
				algA.Step(r, ledA)
				algB.Step(r, tee)
				pa, pb := algA.Models(), algB.Models()
				for m := range pa {
					va, vb := pa[m].FlatParams(nil), pb[m].FlatParams(nil)
					for j := range va {
						if va[j] != vb[j] {
							t.Fatalf("round %d model %d param %d: event-path %v != tee-path %v", r, m, j, va[j], vb[j])
						}
					}
				}
			}

			// Per-round wall times: event arithmetic == reference, bitwise.
			for r := range tee.wallReal {
				if tee.wallReal[r] != tee.wallRef[r] {
					t.Fatalf("round %d wall: event %v != reference %v", r, tee.wallReal[r], tee.wallRef[r])
				}
			}
			if tee.real.TotalTime() != tee.ref.totalTime {
				t.Fatalf("total time: event %v != reference %v", tee.real.TotalTime(), tee.ref.totalTime)
			}
			if ledA.TotalTime() != tee.ref.totalTime {
				t.Fatalf("plain-run total time %v != reference %v", ledA.TotalTime(), tee.ref.totalTime)
			}

			// Ledger bytes: the serialized checkpoint must be byte-identical
			// to the reference state's encoding.
			got, err := tee.real.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := gob.NewEncoder(&want).Encode(tee.ref.state()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatal("event ledger checkpoint differs from per-round reference encoding")
			}

			// The event stream itself: non-empty, start/complete balanced,
			// globally ordered, and bounded by the final clock.
			if log.Len() == 0 {
				t.Fatal("no events drained")
			}
			starts, completes := 0, 0
			prev := -1.0
			for _, e := range log.Events {
				if e.Time < prev {
					t.Fatalf("event time went backwards: %v after %v", e.Time, prev)
				}
				prev = e.Time
				switch e.Kind {
				case netsim.EventTransferStart:
					starts++
				case netsim.EventTransferComplete:
					completes++
				}
				if e.Time > ledA.TotalTime() {
					t.Fatalf("event at %v beyond final clock %v", e.Time, ledA.TotalTime())
				}
			}
			if starts == 0 || starts != completes {
				t.Fatalf("%d transfer starts vs %d completes", starts, completes)
			}
		})
	}
}
