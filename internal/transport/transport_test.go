package transport

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// pipeConn adapts an in-memory duplex pipe to io.ReadWriteCloser.
type pipeConn struct {
	io.Reader
	io.Writer
}

func (p pipeConn) Close() error { return nil }

func TestConnRoundTripAllTypes(t *testing.T) {
	// net.Pipe gives a synchronous duplex stream, perfect for codec tests.
	a, b := net.Pipe()
	ca := NewConn(a)
	cb := NewConn(b)
	msgs := []any{
		Hello{ListenAddr: "1.2.3.4:5"},
		Welcome{Rank: 3, N: 8, Task: TaskSpec{Arch: "mlp", Classes: 4}, Addrs: []string{"a", "b"}},
		RoundMsg{Round: 7, Seed: 99, Peer: 2},
		RoundEnd{Rank: 1, Round: 7, Loss: 0.5},
		CollectRequest{},
		FinalModel{Params: tensor.AppendWords(nil, []float64{1, 2, 3})},
		Done{},
	}
	done := make(chan error, 1)
	go func() {
		for _, m := range msgs {
			if err := ca.Send(m); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i, want := range msgs {
		got, err := cb.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("msg %d: got %+v, want %+v", i, got, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestTaskSpecBuildModel(t *testing.T) {
	specs := []TaskSpec{
		{Arch: "mlp", C: 1, H: 8, W: 8, Classes: 4, Hidden: []int{16}, Seed: 1},
		{Arch: "mnist-cnn", C: 1, H: 8, W: 8, Classes: 4, Width: 0.25, Seed: 1},
		{Arch: "cifar-cnn", C: 3, H: 8, W: 8, Classes: 4, Width: 0.25, Seed: 1},
		{Arch: "resnet", C: 1, H: 8, W: 8, Classes: 4, Width: 0.25, Blocks: 1, Seed: 1},
	}
	for _, s := range specs {
		m, err := s.BuildModel()
		if err != nil {
			t.Fatalf("%s: %v", s.Arch, err)
		}
		if m.ParamCount() == 0 {
			t.Fatalf("%s: empty model", s.Arch)
		}
	}
	if _, err := (TaskSpec{Arch: "nope"}).BuildModel(); err == nil {
		t.Fatal("unknown arch accepted")
	}
}

func TestTaskSpecShardsDeterministic(t *testing.T) {
	spec := TaskSpec{Arch: "mlp", C: 1, H: 8, W: 8, Classes: 4, Samples: 200, DataSeed: 5}
	a, va := spec.BuildShards(4)
	b, vb := spec.BuildShards(4)
	if len(a) != 4 || va.Len() != vb.Len() {
		t.Fatal("shape")
	}
	for i := range a {
		if a[i].Len() != b[i].Len() {
			t.Fatal("shard sizes differ across workers")
		}
		for j := range a[i].Samples {
			if a[i].Samples[j].Label != b[i].Samples[j].Label {
				t.Fatal("shard content differs — workers would train on different data")
			}
		}
	}
}

func TestEndToEndTCPTraining(t *testing.T) {
	// Full protocol over loopback TCP: 4 workers, small MLP, 12 rounds.
	const n = 4
	spec := TaskSpec{
		Arch: "mlp", C: 1, H: 8, W: 8, Classes: 4,
		Hidden: []int{16}, Samples: 200, DataSeed: 5,
		LR: 0.1, Batch: 8, Compression: 4, LocalSteps: 1,
		Rounds: 12, Seed: 3,
	}
	srv := &CoordinatorServer{
		N:      n,
		Task:   spec,
		BW:     netsim.RandomUniform(n, 1, 5, rng.New(2)),
		Gossip: gossip.Config{BThres: 2, TThres: 4},
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	paramsByRank := make([][]float64, n)
	workerErrs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wc := &WorkerClient{}
			p, err := wc.Run(addr, "127.0.0.1:0")
			workerErrs[i] = err
			if err == nil {
				paramsByRank[wc.Rank()] = p
			}
		}(i)
	}
	final, err := srv.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for i, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	// The collected model matches rank 0's final state (Algorithm 1 line 8
	// collects from one worker).
	if len(final) == 0 {
		t.Fatal("empty final model")
	}
	for j := range final {
		if final[j] != paramsByRank[0][j] {
			t.Fatal("collected model differs from rank-0 worker")
		}
	}

	// The trained model must beat chance on the validation split — the TCP
	// path trains for real, it is not a mock.
	model, err := spec.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	model.SetFlatParams(final)
	_, valid := spec.BuildShards(n)
	_, acc := nn.EvaluateDataset(model, valid, 64)
	if acc < 0.4 { // chance is 0.25 on 4 classes
		t.Fatalf("TCP-trained model accuracy %v, want > 0.4", acc)
	}
}

func TestEndToEndNonIID(t *testing.T) {
	const n = 4
	spec := TaskSpec{
		Arch: "mlp", C: 1, H: 8, W: 8, Classes: 4,
		Hidden: []int{12}, Samples: 200, DataSeed: 7, NonIID: true,
		LR: 0.05, Batch: 8, Compression: 2, LocalSteps: 1,
		Rounds: 8, Seed: 11,
	}
	srv := &CoordinatorServer{
		N: n, Task: spec,
		BW:     netsim.RandomUniform(n, 1, 5, rng.New(4)),
		Gossip: gossip.Config{BThres: 0, TThres: 4},
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wc := &WorkerClient{}
			_, errs[i] = wc.Run(addr, "127.0.0.1:0")
		}(i)
	}
	if _, err := srv.Run(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			t.Fatalf("worker %d: %v", i, e)
		}
	}
}

func TestCoordinatorHandlesWorkerDisconnect(t *testing.T) {
	// Failure injection: a worker registers and then dies mid-training. The
	// coordinator must return an error rather than hang on the round
	// barrier.
	const n = 2
	spec := TaskSpec{
		Arch: "mlp", C: 1, H: 8, W: 8, Classes: 4,
		Hidden: []int{8}, Samples: 100, DataSeed: 5,
		LR: 0.1, Batch: 8, Compression: 2, LocalSteps: 1,
		Rounds: 50, Seed: 3,
	}
	srv := &CoordinatorServer{
		N: n, Task: spec,
		BW:     netsim.RandomUniform(n, 1, 5, rng.New(2)),
		Gossip: gossip.Config{TThres: 4},
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// The coordinator must be running before any registration completes:
	// it only sends Welcome once all n workers have said Hello.
	errCh := make(chan error, 1)
	go func() {
		_, err := srv.Run()
		errCh <- err
	}()
	// Worker A: honest, runs in a goroutine (it will error or stall when
	// its peer dies — either way the coordinator must notice).
	go func() {
		wc := &WorkerClient{}
		_, _ = wc.Run(addr, "127.0.0.1:0")
	}()
	// Worker B: registers, receives the welcome, then vanishes.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(nc)
	if err := conn.Send(Hello{ListenAddr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil { // Welcome
		t.Fatal(err)
	}
	conn.Close()

	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("coordinator succeeded despite a dead worker")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator hung after worker disconnect")
	}
}

func TestWorkerRejectsBadCoordinatorAddress(t *testing.T) {
	wc := &WorkerClient{}
	if _, err := wc.Run("127.0.0.1:1", "127.0.0.1:0"); err == nil {
		t.Fatal("dial to dead address should fail")
	}
}

func TestCoordinatorDoubleRunFails(t *testing.T) {
	srv := &CoordinatorServer{N: 1}
	srv.started = true
	if _, err := srv.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestConnSendAfterCloseFails(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(pipeConn{Reader: &buf, Writer: &buf})
	if err := c.Send(Done{}); err != nil {
		t.Fatalf("send to buffer: %v", err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.(Done); !ok {
		t.Fatalf("got %T", got)
	}
}
