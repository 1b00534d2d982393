package memtransport

import (
	"slices"
	"sync"
	"testing"
)

// hubs are the two slot tables: the dense lock-free array every scenario
// fleet uses, and the striped map a fleet over 1024 nodes falls back to.
var hubs = []struct {
	name string
	n    int
}{
	{"dense", 4},
	{"striped", 1025},
}

func TestSlotTableBySize(t *testing.T) {
	if h := NewHub(1024); h.dense == nil || h.stripes != nil {
		t.Errorf("n=1024: dense %v stripes %v, want the dense array", h.dense != nil, h.stripes != nil)
	}
	if h := NewHub(1025); h.dense != nil || len(h.stripes) != slotStripes {
		t.Errorf("n=1025: dense %v, %d stripes, want %d stripes and no O(n²) array", h.dense != nil, len(h.stripes), slotStripes)
	}
}

// TestFIFOPerDirectedPair: two deposits outstanding on one directed pair (the
// butterfly's case) neither block the sender nor overtake each other, and the
// reverse direction is a separate queue.
func TestFIFOPerDirectedPair(t *testing.T) {
	for _, tc := range hubs {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHub(tc.n)
			a, b := 0, tc.n-1
			first, second, back := []float64{1}, []float64{2, 2}, []float64{3}
			for _, p := range [][]float64{first, second} {
				if err := h.Send(0, a, b, p); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.Send(0, b, a, back); err != nil {
				t.Fatal(err)
			}
			for i, want := range [][]float64{first, second} {
				got, err := h.Recv(0, b, a)
				if err != nil {
					t.Fatal(err)
				}
				// By reference: the very slice the sender deposited.
				if len(got) != len(want) || &got[0] != &want[0] {
					t.Fatalf("deposit %d of %d→%d: got %v, want %v", i, a, b, got, want)
				}
			}
			if got, err := h.Recv(0, a, b); err != nil || &got[0] != &back[0] {
				t.Fatalf("reverse direction: got %v, %v", got, err)
			}
		})
	}
}

// TestFirstUseRace: many goroutines meeting one directed pair for the first
// time must all end up on one channel — a second channel would strand its
// deposits where no receiver looks. Run under -race.
func TestFirstUseRace(t *testing.T) {
	const senders = 8
	for _, tc := range hubs {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 50; trial++ {
				h := NewHub(tc.n)
				from, to := 1, tc.n-1
				start := make(chan struct{})
				slots := make([]chan []float64, 2*senders)
				got := make([]float64, senders)
				var wg sync.WaitGroup
				for g := 0; g < senders; g++ {
					wg.Add(2)
					go func(g int) {
						defer wg.Done()
						<-start
						slots[g] = h.slot(from, to)
						if err := h.Send(trial, from, to, []float64{float64(g)}); err != nil {
							t.Error(err)
						}
					}(g)
					go func(g int) {
						defer wg.Done()
						<-start
						slots[senders+g] = h.slot(from, to)
						p, err := h.Recv(trial, to, from)
						if err != nil {
							t.Error(err)
							return
						}
						got[g] = p[0]
					}(g)
				}
				close(start)
				wg.Wait()
				for g, c := range slots {
					if c != slots[0] {
						t.Fatalf("trial %d: goroutine %d got a different channel for %d→%d", trial, g, from, to)
					}
				}
				slices.Sort(got)
				for g, v := range got {
					if v != float64(g) {
						t.Fatalf("trial %d: received %v, want every sender's deposit once", trial, got)
					}
				}
			}
		})
	}
}

func TestRejectsSelfAndOutOfRangePeers(t *testing.T) {
	for _, tc := range hubs {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHub(tc.n)
			for _, p := range [][2]int{{0, 0}, {-1, 0}, {0, -1}, {tc.n, 0}, {0, tc.n}} {
				if err := h.Send(0, p[0], p[1], nil); err == nil {
					t.Errorf("Send %d→%d accepted", p[0], p[1])
				}
				if _, err := h.Recv(0, p[0], p[1]); err == nil {
					t.Errorf("Recv at %d from %d accepted", p[0], p[1])
				}
			}
		})
	}
	if err := NewHub(1).Send(0, 0, 0, nil); err == nil {
		t.Error("a single-node hub accepted a send")
	}
}
