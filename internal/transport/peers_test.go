package transport

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/tensor"
)

// peerFleet stands up n workers' data planes — listener, readers, inbox —
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

// TestPeerFrameHazards pins the ways a one-way frame protocol can hang or
// mispair: both ends writing before either reads, an empty payload, two
// frames of one sender overtaking each other, and a connection that stalls
// inside a frame in front of the ones a round needs.
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

	t.Run("stalled-peer", func(t *testing.T) {
		ws := peerFleet(t, 2)
		// Each worker first takes in a connection that sends 20 of a
		// header's 36 bytes and then nothing: a reader per connection
		// leaves the round's own frames to theirs.
		for _, w := range ws {
			nc, err := net.Dial("tcp", w.addrs[w.rank])
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { nc.Close() })
			frame := tensor.AppendWords(engine.BeginFrame(nil), []float64{1})
			engine.SealFrame(frame, engine.FrameHeader{Kind: engine.FramePayload, From: 1 - w.rank})
			if _, err := nc.Write(frame[:20]); err != nil {
				t.Fatal(err)
			}
		}
		nodes := []*recNode{{out: []float64{0, 1}}, {out: []float64{1, 2}}}
		codecs := []engine.Codec{engine.Dense{}, engine.Dense{}}
		plan := core.RoundPlan{Round: 2, Seed: 5, Peer: []int{1, 0}}
		within(t, 30*time.Second, func() error {
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for self := range ws {
				wg.Add(1)
				go func(self int) {
					defer wg.Done()
					ws[self].inbox.begin(plan.Round, 0)
					ctx := engine.RoundContext{Round: plan.Round, Seed: plan.Seed, Self: self, N: 2, Plan: plan}
					_, errs[self] = engine.WorkerRound(nodes[self], engine.Pairwise{}, codecs, peerDialer{ws[self]}, new(engine.PhaseState), ctx)
				}(self)
			}
			wg.Wait()
			return firstError(errs)
		})
		for self, n := range nodes {
			if len(n.merged) != 1 || n.merged[0].From != 1-self {
				t.Fatalf("rank %d merged %+v, want one message from %d", self, n.merged, 1-self)
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

// readers counts the goroutines running WorkerClient.readPeer.
func readers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "transport.(*WorkerClient).readPeer(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestNoReaderOutlivesItsWorker: every inbound connection's reader has
// exited once its worker's data plane stops — after the peerFleet cleanup,
// with connections both ways still open from the other side, and after Run
// returns, a crash and a resume included.
func TestNoReaderOutlivesItsWorker(t *testing.T) {
	before := readers()
	var raw net.Conn // closed only once the fleet has stopped
	t.Run("peerFleet", func(t *testing.T) {
		ws := peerFleet(t, 2)
		// A raw connection and one each way between the workers, all still
		// open from the dialling side when the cleanup stops the fleet.
		var err error
		if raw, err = net.Dial("tcp", ws[0].addrs[0]); err != nil {
			t.Fatal(err)
		}
		within(t, 30*time.Second, func() error {
			for self := range ws {
				if err := (peerDialer{ws[self]}).Send(0, self, 1-self, []float64{1}); err != nil {
					return err
				}
			}
			for self := range ws {
				if _, err := (peerDialer{ws[self]}).Recv(0, self, 1-self); err != nil {
					return err
				}
			}
			for readers() < before+3 {
				time.Sleep(time.Millisecond)
			}
			return nil
		})
	})
	if n := readers(); n != before {
		t.Fatalf("%d readers still running after the peerFleet cleanup", n-before)
	}
	if raw != nil {
		raw.Close()
	}

	spec, err := scenario.Load("../scenario/testdata/saps-crash-rejoin.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := runFleet(t, &CoordinatorServer{Spec: spec, RejoinWait: 10 * time.Second}); sum(got.kills) == 0 {
		t.Fatal("the fleet crashed no worker")
	}
	if n := readers(); n != before {
		t.Fatalf("%d readers still running after every worker's Run returned", n-before)
	}
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
