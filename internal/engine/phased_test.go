package engine_test

import (
	"testing"

	"sapspsgd/internal/engine/memtransport"
)

// TestHubSendRecvFIFO pins the hub's one-way primitives: deposits drain in
// FIFO order per directed pair, independently per direction, and both
// methods validate their ranks.
func TestHubSendRecvFIFO(t *testing.T) {
	h := memtransport.NewHub(3)
	if err := h.Send(0, 0, 1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := h.Send(0, 0, 1, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if err := h.Send(0, 2, 1, []float64{3}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct {
		from int
		v    float64
	}{{0, 1}, {0, 2}, {2, 3}} {
		got, err := h.Recv(0, 1, want.from)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != want.v {
			t.Fatalf("recv %d: got %v, want [%v]", i, got, want.v)
		}
	}
	if err := h.Send(0, 0, 0, nil); err == nil {
		t.Fatal("self-send accepted")
	}
	if _, err := h.Recv(0, 1, 3); err == nil {
		t.Fatal("out-of-range recv accepted")
	}
}
