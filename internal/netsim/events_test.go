package netsim

import (
	"bytes"
	"fmt"
	"testing"

	"sapspsgd/internal/rng"
)

// randomEvents draws n events with deliberately colliding times and keys, so
// the ordering tests exercise the tie-breaking chain, not just the time
// comparison.
func randomEvents(n int, src *rng.Source) []Event {
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{
			// A coarse time grid forces many exact-time collisions.
			Time:  float64(src.Intn(n/4+1)) * 0.25,
			Kind:  EventKind(src.Intn(3)),
			Rank:  int32(src.Intn(n)),
			Peer:  int32(src.Intn(n+1) - 1),
			Round: int32(src.Intn(4)),
			Bytes: int64(src.Intn(3)) * 1000,
		}
	}
	return events
}

func drain(q *EventQueue) []Event {
	var out []Event
	for {
		e, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// TestEventOrderInsertionInvariant is the determinism property the async
// driver rests on: the drain order of an event set is invariant under the
// order the events were inserted, across 5 seeds at N ∈ {8, 64, 512}.
func TestEventOrderInsertionInvariant(t *testing.T) {
	for _, n := range []int{8, 64, 512} {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("n%d/seed%d", n, seed), func(t *testing.T) {
				src := rng.New(seed).Derive(0xe4e4)
				events := randomEvents(n, src)
				var q EventQueue
				for _, e := range events {
					q.Push(e)
				}
				want := drain(&q)
				for shuffle := 0; shuffle < 4; shuffle++ {
					src.Shuffle(len(events), func(i, j int) {
						events[i], events[j] = events[j], events[i]
					})
					for _, e := range events {
						q.Push(e)
					}
					got := drain(&q)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("shuffle %d: event %d = %+v, want %+v", shuffle, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestEventOrderSeedStable pins that the drained sequence is a pure function
// of the seed: regenerating the same seeded event set yields a byte-identical
// serialized log, and the sequence is sorted under the total order.
func TestEventOrderSeedStable(t *testing.T) {
	for _, n := range []int{8, 64, 512} {
		for seed := uint64(1); seed <= 5; seed++ {
			logs := make([][]byte, 2)
			for rep := 0; rep < 2; rep++ {
				events := randomEvents(n, rng.New(seed).Derive(0xe4e4))
				var q EventQueue
				for _, e := range events {
					q.Push(e)
				}
				var log EventLog
				prev := Event{Time: -1}
				for {
					e, ok := q.Pop()
					if !ok {
						break
					}
					if eventLess(e, prev) {
						t.Fatalf("n=%d seed=%d: %+v drained after %+v", n, seed, e, prev)
					}
					prev = e
					log.Append(e)
				}
				logs[rep] = log.Bytes()
			}
			if !bytes.Equal(logs[0], logs[1]) {
				t.Fatalf("n=%d seed=%d: two generations of the same seed serialized differently", n, seed)
			}
		}
	}
}

// TestEventTieBreaking pins the documented key order at exactly equal times:
// kind, then rank, then peer.
func TestEventTieBreaking(t *testing.T) {
	var q EventQueue
	q.Push(Event{Time: 1, Kind: EventTransferComplete, Rank: 0})
	q.Push(Event{Time: 1, Kind: EventComputeDone, Rank: 5})
	q.Push(Event{Time: 1, Kind: EventTransferStart, Rank: 2, Peer: 3})
	q.Push(Event{Time: 1, Kind: EventTransferStart, Rank: 2, Peer: 1})
	q.Push(Event{Time: 0.5, Kind: EventTransferComplete, Rank: 9})
	got := drain(&q)
	want := []Event{
		{Time: 0.5, Kind: EventTransferComplete, Rank: 9},
		{Time: 1, Kind: EventComputeDone, Rank: 5},
		{Time: 1, Kind: EventTransferStart, Rank: 2, Peer: 1},
		{Time: 1, Kind: EventTransferStart, Rank: 2, Peer: 3},
		{Time: 1, Kind: EventTransferComplete, Rank: 0},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestEventLogSerialization pins both serialized forms of a log byte for
// byte: the exact-replay text (hex time bits) and the CSV beside it.
func TestEventLogSerialization(t *testing.T) {
	var log EventLog
	log.Append(Event{Time: 0.5, Kind: EventComputeDone, Rank: 3, Peer: -1})
	log.Append(Event{Time: 0.5, Kind: EventTransferStart, Rank: 3, Peer: 1, Round: 2, Bytes: 4096})
	log.Append(Event{Time: 1.25, Kind: EventTransferComplete, Rank: 3, Peer: 1, Round: 2, Bytes: 4096})
	wantLog := "3fe0000000000000 compute-done 3 -1 0 0\n" +
		"3fe0000000000000 transfer-start 3 1 2 4096\n" +
		"3ff4000000000000 transfer-complete 3 1 2 4096\n"
	if got := string(log.Bytes()); got != wantLog {
		t.Fatalf("Bytes:\n%s\nwant:\n%s", got, wantLog)
	}
	var csv bytes.Buffer
	if err := log.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	wantCSV := "time_sec,time_bits,kind,rank,peer,round,bytes\n" +
		"0.500000000,3fe0000000000000,compute-done,3,-1,0,0\n" +
		"0.500000000,3fe0000000000000,transfer-start,3,1,2,4096\n" +
		"1.250000000,3ff4000000000000,transfer-complete,3,1,2,4096\n"
	if got := csv.String(); got != wantCSV {
		t.Fatalf("WriteCSV:\n%s\nwant:\n%s", got, wantCSV)
	}
}
