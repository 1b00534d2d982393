package transport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/scenario"
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
		Welcome{Rank: 3, N: 8, Spec: []byte(`{"schema_version": 2}`), Addrs: []string{"a", "b"}},
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

func TestEndToEndTCPTraining(t *testing.T) {
	// Full protocol over loopback TCP: 4 workers, small MLP, 12 rounds.
	spec := tinySpec("saps", 4, 12)
	spec.Model.Hidden = []int{16}
	spec.Data.Samples, spec.Data.Valid = 200, 40
	spec.Gossip = &scenario.GossipSpec{BThres: 2, TThres: 4}
	run := runFleet(t, &CoordinatorServer{Spec: spec})
	// The collected model matches rank 0's final state (Algorithm 1 line 8
	// collects from one worker).
	sameBits(t, "collected model against rank 0", run.final, run.byRank[0])

	// The trained model must beat chance on the validation split — the TCP
	// path trains for real, it is not a mock.
	model, err := spec.NewModel()
	if err != nil {
		t.Fatal(err)
	}
	model.SetFlatParams(run.final)
	_, valid := spec.Dataset()
	_, acc := nn.EvaluateDataset(model, valid, 64)
	if acc < 0.4 { // chance is 0.25 on 4 classes
		t.Fatalf("TCP-trained model accuracy %v, want > 0.4", acc)
	}
}

func TestEndToEndNonIID(t *testing.T) {
	spec := tinySpec("saps", 4, 8)
	spec.Seed, spec.LR, spec.Compression = 11, 0.05, 2
	spec.Model.Hidden = []int{12}
	spec.Data.Samples, spec.Data.Seed = 200, 7
	spec.Partition = &scenario.PartitionSpec{Kind: "label"}
	spec.Gossip = &scenario.GossipSpec{TThres: 4}
	runFleet(t, &CoordinatorServer{Spec: spec})
}

func TestCoordinatorHandlesWorkerDisconnect(t *testing.T) {
	// Failure injection: a worker registers and then dies mid-training. The
	// coordinator must return an error rather than hang on the round
	// barrier.
	srv := &CoordinatorServer{Spec: tinySpec("saps", 2, 50)}
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

// TestCoordinatorRefusesInvalidTask: a task that cannot train is refused by
// Run before anyone registers, with an error that names the field. Each used
// to get past the coordinator: a zero Gossip panicked Run with "core: TThres
// 0 < 1" once every worker had registered, one class and one sample panicked
// every worker, a label split short of two shards per worker did too, and a
// zero input size ended in "only 0 effective workers remain".
func TestCoordinatorRefusesInvalidTask(t *testing.T) {
	valid := TaskSpec{
		Arch: "mlp", C: 1, H: 8, W: 8, Classes: 4, Hidden: []int{8},
		Samples: 64, DataSeed: 5, LR: 0.1, Batch: 8, Compression: 4, LocalSteps: 1,
		Rounds: 2, Seed: 3,
	}
	cases := []struct {
		name   string
		mut    func(*TaskSpec)
		gossip GossipConfig
		want   string
	}{
		{"zero gossip", func(*TaskSpec) {}, GossipConfig{}, "t_thres 0"},
		{"one class", func(s *TaskSpec) { s.Classes = 1 }, GossipConfig{TThres: 4}, "1 classes"},
		{"one sample", func(s *TaskSpec) { s.Samples = 1 }, GossipConfig{TThres: 4}, "1 samples for 4 nodes"},
		{"label split short of shards", func(s *TaskSpec) { s.NonIID, s.Samples = true, 6 }, GossipConfig{TThres: 4}, "partition label"},
		{"zero input size", func(s *TaskSpec) { s.H, s.W = 0, 0 }, GossipConfig{TThres: 4}, "geometry 1x0x0"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			task := valid
			tc.mut(&task)
			err := refusal(t, &CoordinatorServer{N: 4, Task: task, Gossip: tc.gossip})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run returned %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// TestWorkerRefusesUnparsableSpec: a Welcome whose spec bytes do not parse
// ends the worker with an error that says so, not a panic.
func TestWorkerRefusesUnparsableSpec(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		conn := NewConn(nc)
		defer conn.Close()
		if _, err := conn.Recv(); err != nil { // Hello
			return
		}
		conn.Send(Welcome{Rank: 0, N: 2, Spec: []byte(`{"schema_version": 2, "algo": `), Addrs: []string{"", ""}})
		conn.Recv() // until the worker hangs up
	}()
	_, err = (&WorkerClient{}).Run(ln.Addr().String(), "127.0.0.1:0")
	if err == nil || !strings.Contains(err.Error(), "the coordinator's spec") {
		t.Fatalf("worker returned %v, want an error naming the spec", err)
	}
}

// TestTaskSpecConversionKeepsBits: the benchmark's tcp8 task, decoded as the
// benchmark decodes it, builds through Spec exactly the shards, model and
// recipe the formula TaskSpec has always used gives — pixel noise 0.35, a
// fifth of the samples held out, the IID split seeded by DataSeed+1 — so the
// workload's bits do not move with the conversion.
func TestTaskSpecConversionKeepsBits(t *testing.T) {
	const n = 8
	data, err := os.ReadFile("../../benchmark/workloads/tcp8.json")
	if err != nil {
		t.Fatal(err)
	}
	var task TaskSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&task); err != nil {
		t.Fatal(err)
	}
	task.Seed = 7

	train, _ := dataset.ImageTask(task.Arch, task.C, task.H, task.W, task.Classes, 0.35, task.Samples, task.Samples/5, task.DataSeed)
	wantShards := dataset.PartitionIID(train, n, task.DataSeed+1)
	shards, _ := task.BuildShards(n)
	if len(shards) != n {
		t.Fatalf("%d shards, want %d", len(shards), n)
	}
	for r := range wantShards {
		got, want := shards[r].Samples, wantShards[r].Samples
		if len(got) != len(want) {
			t.Fatalf("shard %d holds %d samples, want %d", r, len(got), len(want))
		}
		for i := range want {
			if got[i].Label != want[i].Label {
				t.Fatalf("shard %d sample %d: label %d, want %d", r, i, got[i].Label, want[i].Label)
			}
			sameBits(t, fmt.Sprintf("shard %d sample %d", r, i), got[i].X, want[i].X)
		}
	}

	wantModel, err := nn.Arch{Name: task.Arch, Hidden: task.Hidden}.New(nn.Shape{C: task.C, H: task.H, W: task.W}, task.Classes, task.Seed)
	if err != nil {
		t.Fatal(err)
	}
	model, err := task.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "model", model.FlatParams(nil), wantModel.FlatParams(nil))

	want := algos.Recipe{
		Algo: "saps", Workers: n, LR: task.LR, Batch: task.Batch, Seed: task.Seed,
		Compression: task.Compression, LocalSteps: task.LocalSteps,
	}
	if got := task.Recipe(n); !reflect.DeepEqual(got, want) {
		t.Fatalf("recipe %+v, want %+v", got, want)
	}
}

// TestResumeRefusesSnapshotWithoutSpec: a snapshot whose first section is not
// a scenario spec — what a worker wrote before specs crossed the wire, a gob
// task there — fails -resume by name, before the worker dials anyone.
func TestResumeRefusesSnapshotWithoutSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.snap")
	old := &WorkerSnapshot{Version: WorkerSnapshotVersion, Rank: 1, NextRound: 3, Spec: []byte("\x3f\xff\x81\x03\x01\x01\x08TaskSpec")}
	if err := SaveWorkerSnapshot(path, old); err != nil {
		t.Fatal(err)
	}
	_, err := (&WorkerClient{SnapshotPath: path, Resume: true}).Run("127.0.0.1:1", "127.0.0.1:0")
	if err == nil || !strings.Contains(err.Error(), "holds no scenario spec") {
		t.Fatalf("resume returned %v, want an error saying the snapshot holds no spec", err)
	}
}
