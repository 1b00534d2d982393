package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/tensor"
)

// peerFleet stands up n workers' data planes — listener, accept loop, inbox —
// without a coordinator, so a test can drive peerDialer's Send/Recv (or a
// whole engine.WorkerRound) directly.
func peerFleet(t *testing.T, n int) []*WorkerClient {
	t.Helper()
	return peerFleetWith(t, n, func(*WorkerClient) {})
}

// peerFleetWith is peerFleet with each worker handed to prepare before its
// accept loop starts.
func peerFleetWith(t *testing.T, n int, prepare func(*WorkerClient)) []*WorkerClient {
	t.Helper()
	ws := make([]*WorkerClient, n)
	addrs := make([]string, n)
	for i := range ws {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// No model here to derive the payload cap from: room for the 8 MB frame.
		ws[i] = &WorkerClient{rank: i, n: n, peerLn: ln, maxPayload: 16 << 20}
		addrs[i] = ln.Addr().String()
	}
	for _, w := range ws {
		w.addrs = addrs
		prepare(w)
		t.Cleanup(w.servePeers())
	}
	return ws
}

// within fails the test unless fn returns inside the deadline — the hazards
// below are hangs, not wrong answers.
func within(t *testing.T, d time.Duration, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(d):
		t.Fatalf("still blocked after %v", d)
	}
}

// recNode is a minimal engine.Node: a fixed outbound vector, every merged
// message recorded, and an optional hook run inside Compute.
type recNode struct {
	out     []float64
	compute func()
	merged  []engine.PeerMsg
}

func (n *recNode) Compute(engine.RoundContext) (float64, []float64, error) {
	if n.compute != nil {
		n.compute()
	}
	return 1, n.out, nil
}

func (n *recNode) Merge(_ engine.RoundContext, msgs []engine.PeerMsg) error {
	n.merged = append(n.merged, msgs...)
	return nil
}

// TestPeerFrameHazards pins the three ways a one-way frame protocol can hang
// or mispair (ISSUE 13): both ends writing before either reads, an empty
// payload, and two frames of one sender overtaking each other.
func TestPeerFrameHazards(t *testing.T) {
	t.Run("send-before-recv", func(t *testing.T) {
		ws := peerFleet(t, 2)
		big := make([]float64, 1<<20) // 8 MB on the wire: far beyond the socket buffers
		within(t, 30*time.Second, func() error {
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for self := range ws {
				wg.Add(1)
				go func(self int) {
					defer wg.Done()
					d, peer := peerDialer{ws[self]}, 1-self
					big := append([]float64{float64(self)}, big...)
					if errs[self] = d.Send(0, self, peer, big); errs[self] != nil {
						return
					}
					got, err := d.Recv(0, self, peer)
					if err == nil && (len(got) != len(big) || got[0] != float64(peer)) {
						err = fmt.Errorf("rank %d received %d values tagged %v", self, len(got), got[0])
					}
					errs[self] = err
				}(self)
			}
			wg.Wait()
			return firstError(errs)
		})
	})

	t.Run("empty-payload", func(t *testing.T) {
		ws := peerFleet(t, 2)
		nodes := []*recNode{{out: make([]float64, 4)}, {out: make([]float64, 4)}}
		// A 4-value vector at ratio 1e12 keeps nothing: the mask is empty.
		codecs := []engine.Codec{engine.NewMasked(1e12), engine.NewMasked(1e12)}
		plan := core.RoundPlan{Round: 3, Seed: 9, Peer: []int{1, 0}}
		within(t, 30*time.Second, func() error {
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for self := range ws {
				wg.Add(1)
				go func(self int) {
					defer wg.Done()
					ws[self].inbox.begin(plan.Round, 0)
					ctx := engine.RoundContext{Round: plan.Round, Seed: plan.Seed, Self: self, N: 2, Plan: plan}
					rep, err := engine.WorkerRound(nodes[self], engine.Pairwise{}, codecs, peerDialer{ws[self]}, new(engine.PhaseState), ctx)
					if err == nil && rep.PayloadLen != 0 {
						err = fmt.Errorf("rank %d shipped %d words, want an empty payload", self, rep.PayloadLen)
					}
					errs[self] = err
				}(self)
			}
			wg.Wait()
			return firstError(errs)
		})
		for self, n := range nodes {
			if len(n.merged) != 1 || n.merged[0].From != 1-self || len(n.merged[0].Words) != 0 {
				t.Fatalf("rank %d merged %+v, want one empty message from %d", self, n.merged, 1-self)
			}
		}
	})

	t.Run("reverse-order", func(t *testing.T) {
		ws := peerFleet(t, 2)
		// Rank 0's two frames to rank 1 land second-first: the second is fully
		// in the inbox before the first is even dialled.
		for _, seq := range []int{1, 0} {
			nc, err := net.Dial("tcp", ws[1].addrs[1])
			if err != nil {
				t.Fatal(err)
			}
			frame := tensor.AppendWords(engine.BeginFrame(nil), []float64{float64(seq)})
			engine.SealFrame(frame, engine.FrameHeader{Kind: engine.FramePayload, From: 0, Seq: seq})
			if _, err := nc.Write(frame); err != nil {
				t.Fatal(err)
			}
			nc.Close()
			for arrived := 0; arrived < 2-seq; time.Sleep(time.Millisecond) {
				ws[1].inbox.mu.Lock()
				arrived = len(ws[1].inbox.frames[0])
				ws[1].inbox.mu.Unlock()
			}
		}
		within(t, 30*time.Second, func() error {
			for want := 0; want < 2; want++ {
				got, err := peerDialer{ws[1]}.Recv(0, 1, 0)
				if err != nil {
					return err
				}
				if len(got) != 1 || got[0] != float64(want) {
					return fmt.Errorf("Recv %d returned %v", want, got)
				}
			}
			return nil
		})
	})
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TestHubOverTCPWorkersTrainConcurrently: the hub server must deposit every
// chosen worker's downlink before it waits on any uplink, so the workers
// train at the same time — each worker's Compute here refuses to return until
// the other has entered its own — and a worker left out of plan.Active is
// never sent a frame.
func TestHubOverTCPWorkersTrainConcurrently(t *testing.T) {
	const n, server = 4, 3
	ws := peerFleet(t, n)
	plan := core.RoundPlan{Round: 1, Active: []bool{true, false, true, true}}
	var training sync.WaitGroup
	training.Add(2)
	meet := func() {
		training.Done()
		training.Wait()
	}
	nodes := make([]*recNode, n)
	codecs := make([]engine.Codec, n)
	for i := range nodes {
		nodes[i] = &recNode{out: []float64{float64(10 + i)}}
		if i != server {
			nodes[i].compute = meet
		}
		codecs[i] = engine.Dense{}
	}
	within(t, 30*time.Second, func() error {
		var wg sync.WaitGroup
		errs := make([]error, n)
		for self := range ws {
			if !plan.Active[self] {
				continue
			}
			wg.Add(1)
			go func(self int) {
				defer wg.Done()
				ws[self].inbox.begin(plan.Round, 0)
				ctx := engine.RoundContext{Round: plan.Round, Self: self, N: n, Plan: plan}
				_, errs[self] = engine.WorkerRound(nodes[self], engine.Hub{Server: server}, codecs, peerDialer{ws[self]}, new(engine.PhaseState), ctx)
			}(self)
		}
		wg.Wait()
		return firstError(errs)
	})
	if got := len(nodes[server].merged); got != 2 {
		t.Fatalf("server merged %d uploads, want 2", got)
	}
	for self, w := range ws {
		if w.sent[1] != 0 {
			t.Fatalf("rank %d sent %d frames to the inactive rank 1", self, w.sent[1])
		}
	}
}
