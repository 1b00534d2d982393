// Engine tests: backend equivalence (the same SAPS config must produce
// bit-identical model trajectories and identical per-round traffic totals
// over the in-memory, simulated-bandwidth, and TCP backends) plus regression
// coverage for the in-process hub and the counting ledger. Run with -race to
// exercise the hub's payload hand-over ordering (the CI workflow does).
package engine_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/engine/memtransport"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/transport"
)

// testSpec is the shared tiny workload: every backend builds models, shards,
// and hyperparameters from this one spec, exactly as TCP workers do from the
// coordinator's broadcast.
func testSpec(rounds int) *scenario.Spec {
	return &scenario.Spec{
		SchemaVersion: scenario.SpecSchemaVersion, Name: "backends", Algo: "saps",
		Nodes: 4, Rounds: rounds, Seed: 5, LR: 0.05, Batch: 8, Compression: 8,
		Model:     scenario.ModelSpec{Hidden: []int{12}},
		Data:      scenario.DataSpec{Samples: 256, Classes: 4, C: 1, H: 8, W: 8, Seed: 11},
		Bandwidth: scenario.BandwidthSpec{Kind: "uniform", Lo: 1, Hi: 5},
	}
}

// sapsFleet assembles the spec's SAPS fleet the way every deployment does —
// each rank's node and the codec table from the spec's recipe, as a TCP
// WorkerClient does after Welcome — under the given planner, and returns the
// engine options plus the core workers behind the nodes.
func sapsFleet(t *testing.T, spec *scenario.Spec, planner engine.Planner) (engine.Options, []*core.Worker) {
	t.Helper()
	rec := spec.Recipe()
	shards, _ := spec.Dataset()
	nodes := make([]engine.Node, spec.Nodes)
	ws := make([]*core.Worker, spec.Nodes)
	for i := range nodes {
		model, err := spec.NewModel()
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = rec.NewNode(i, model, shards[i], nil)
		ws[i] = nodes[i].(*engine.MaskedGossipNode).W
	}
	codecs := rec.Codecs(ws[0].Model.ParamCount())
	engine.ShareMasks(nodes, codecs)
	return engine.Options{Nodes: nodes, Codecs: codecs, Pattern: rec.Pattern(), Planner: planner}, ws
}

// inProcRun is one engine training over an in-process backend: it returns
// the per-round traffic totals and the per-round snapshot of every worker's
// parameters.
func inProcRun(t *testing.T, spec *scenario.Spec, inner engine.Ledger, tr engine.Transport) (roundBytes []int64, trajectory [][][]float64) {
	t.Helper()
	opts, workers := sapsFleet(t, spec, spec.Planner(spec.Env()))
	opts.Transport = tr
	eng := engine.New(opts)
	defer eng.Close()
	led := &engine.CountingLedger{Inner: inner}
	for round := 0; round < spec.Rounds; round++ {
		if _, err := eng.Step(round, led); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		snap := make([][]float64, len(workers))
		for i, w := range workers {
			snap[i] = w.Model.FlatParams(nil)
		}
		trajectory = append(trajectory, snap)
	}
	return led.RoundBytes(), trajectory
}

// tcpRun trains the same spec over real loopback TCP (coordinator server +
// one worker client per node) and returns the per-round traffic totals and
// the final rank-0 model.
func tcpRun(t *testing.T, spec *scenario.Spec) (roundBytes []int64, final []float64) {
	t.Helper()
	led := &engine.CountingLedger{}
	srv := &transport.CoordinatorServer{Spec: spec, Ledger: led}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < spec.Nodes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := &transport.WorkerClient{}
			if _, err := wc.Run(addr, "127.0.0.1:0"); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	final, err = srv.Run()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return led.RoundBytes(), final
}

// TestBackendEquivalence is the three-backend contract: identical model
// trajectories (bit-for-bit) and identical per-round traffic totals over
// memtransport, memtransport charged against a netsim ledger, and TCP.
func TestBackendEquivalence(t *testing.T) {
	const rounds = 8
	spec := testSpec(rounds)
	n := spec.Nodes

	memBytes, memTraj := inProcRun(t, spec, nil, memtransport.NewHub(n))

	simHub, simLed := memtransport.NewHub(n), netsim.NewLedger(spec.Env())
	simBytes, simTraj := inProcRun(t, spec, simLed, simHub)

	tcpBytes, tcpFinal := tcpRun(t, spec)

	// Per-round traffic totals must agree across all three backends.
	for name, got := range map[string][]int64{"netsim": simBytes, "tcptransport": tcpBytes} {
		if len(got) != len(memBytes) {
			t.Fatalf("%s: %d rounds accounted, want %d", name, len(got), len(memBytes))
		}
		for r := range memBytes {
			if got[r] != memBytes[r] {
				t.Errorf("%s round %d: %d bytes, memtransport %d", name, r, got[r], memBytes[r])
			}
		}
	}
	// The simulated backend also accrues bandwidth-modelled time; the byte
	// totals must still match the bandwidth-free accounting exactly.
	if simLed.TotalTime() <= 0 {
		t.Error("netsim ledger: no simulated communication time accrued")
	}
	if !simLed.ConservationOK() {
		t.Error("netsim ledger: conservation violated")
	}

	// mem vs sim: bit-identical trajectory, every worker, every round.
	for r := range memTraj {
		for w := range memTraj[r] {
			for j, v := range memTraj[r][w] {
				if simTraj[r][w][j] != v {
					t.Fatalf("round %d worker %d param %d: sim %v != mem %v", r, w, j, simTraj[r][w][j], v)
				}
			}
		}
	}
	// tcp: the collected rank-0 model must equal the in-memory rank-0 model
	// bit-for-bit.
	memFinal := memTraj[rounds-1][0]
	if len(tcpFinal) != len(memFinal) {
		t.Fatalf("tcp final model %d params, want %d", len(tcpFinal), len(memFinal))
	}
	for j, v := range memFinal {
		if tcpFinal[j] != v {
			t.Fatalf("tcp final param %d: %v != %v", j, tcpFinal[j], v)
		}
	}
}

// TestEngineHonorsActiveSet checks the dynamic-membership path: inactive
// workers neither train nor exchange, and the loss averages over the
// participants only.
func TestEngineHonorsActiveSet(t *testing.T) {
	spec := testSpec(1)
	planner := engine.PlannerFunc(func(round int) core.RoundPlan {
		return core.RoundPlan{
			Round:  round,
			Seed:   99,
			Peer:   []int{1, 0, -1, -1},
			Active: []bool{true, true, true, false},
		}
	})
	opts, workers := sapsFleet(t, spec, planner)
	before := workers[3].Model.FlatParams(nil)
	eng := engine.New(opts)
	defer eng.Close()
	led := &engine.CountingLedger{}
	stats, err := eng.Step(0, led)
	if err != nil {
		t.Fatal(err)
	}
	after := workers[3].Model.FlatParams(nil)
	for j := range before {
		if after[j] != before[j] {
			t.Fatalf("inactive worker 3 trained: param %d changed", j)
		}
	}
	if stats.Loss <= 0 {
		t.Fatalf("loss %v, want > 0 over active workers", stats.Loss)
	}
	sent, recv := led.WorkerBytes(3)
	if sent != 0 || recv != 0 {
		t.Fatalf("inactive worker 3 accounted %d/%d bytes", sent, recv)
	}
}

// TestHubRendezvous hammers the hub from many concurrent pairs over many
// rounds, both ends of a pair sending before either receives; with -race this
// validates the payload hand-over ordering.
func TestHubRendezvous(t *testing.T) {
	const n, rounds = 8, 50
	hub := memtransport.NewHub(n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			peer := self ^ 1 // pair (0,1), (2,3), ...
			for r := 0; r < rounds; r++ {
				if err := hub.Send(r, self, peer, []float64{float64(self), float64(r)}); err != nil {
					errs <- err
					return
				}
				got, err := hub.Recv(r, self, peer)
				if err != nil {
					errs <- err
					return
				}
				if got[0] != float64(peer) || got[1] != float64(r) {
					errs <- fmt.Errorf("worker %d round %d: got payload %v", self, r, got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestHubRejectsBadPeer(t *testing.T) {
	hub := memtransport.NewHub(2)
	if err := hub.Send(0, 0, 0, nil); err == nil {
		t.Error("self-send accepted")
	}
	if _, err := hub.Recv(0, 0, 5); err == nil {
		t.Error("out-of-range peer accepted")
	}
}

// TestEngineRejectsMalformedPlan: asymmetric or out-of-range matchings must
// error before dispatch — a one-sided assignment would otherwise leave a
// worker blocked in Recv and deadlock the barrier.
func TestEngineRejectsMalformedPlan(t *testing.T) {
	spec := testSpec(1)
	bad := []core.RoundPlan{
		{Round: 0, Seed: 1, Peer: []int{1, 0}},                                                  // wrong length
		{Round: 0, Seed: 1, Peer: []int{1, 0, 3, -1}},                                           // one-sided: 2→3 but 3→-1
		{Round: 0, Seed: 1, Peer: []int{0, -1, -1, -1}},                                         // self-exchange
		{Round: 0, Seed: 1, Peer: []int{7, -1, -1, -1}},                                         // out of range
		{Round: 0, Seed: 1, Peer: []int{1, 0, -1, -1}, Active: []bool{false, true, true, true}}, // matched inactive
	}
	for i, plan := range bad {
		p := plan
		opts, _ := sapsFleet(t, spec, engine.PlannerFunc(func(int) core.RoundPlan { return p }))
		eng := engine.New(opts)
		_, err := eng.Step(0, &engine.CountingLedger{})
		eng.Close()
		if err == nil {
			t.Errorf("malformed plan %d accepted: %+v", i, p)
		}
	}
}

func TestCountingLedger(t *testing.T) {
	led := &engine.CountingLedger{}
	led.Exchange(0, 1, 100, 50)
	led.EndRound()
	led.Exchange(2, 3, 10, 10)
	led.Exchange(0, 2, 5, 5)
	led.EndRound()
	if got := led.RoundBytes(); len(got) != 2 || got[0] != 150 || got[1] != 30 {
		t.Fatalf("round bytes %v, want [150 30]", got)
	}
	if led.TotalBytes() != 180 {
		t.Fatalf("total %d, want 180", led.TotalBytes())
	}
	sent, recv := led.WorkerBytes(0)
	if sent != 105 || recv != 55 {
		t.Fatalf("worker 0 bytes %d/%d, want 105/55", sent, recv)
	}
	if led.Rounds() != 2 {
		t.Fatalf("rounds %d, want 2", led.Rounds())
	}
}

// TestFoldMeansOverTrainersByRole: the round mean covers the nodes the
// pattern marked Trained, whatever their losses are. A trainer whose loss is
// NaN makes the mean NaN (a diverged run must not report the survivors'
// mean, or 0 when none survive); a NaN from the hub's server, which is not
// Trained, stays out.
func TestFoldMeansOverTrainersByRole(t *testing.T) {
	nan := math.NaN()
	var fold engine.ReportFold
	trainerNaN := fold.Fold([]engine.NodeReport{
		{Loss: 1, Trained: true}, {Loss: nan, Trained: true}, {Loss: 3, Trained: true},
	})
	if !math.IsNaN(trainerNaN.MeanLoss) {
		t.Errorf("one NaN trainer: mean %v, want NaN", trainerNaN.MeanLoss)
	}
	allNaN := fold.Fold([]engine.NodeReport{{Loss: nan, Trained: true}, {Loss: nan, Trained: true}})
	if !math.IsNaN(allNaN.MeanLoss) {
		t.Errorf("every trainer NaN: mean %v, want NaN", allNaN.MeanLoss)
	}
	serverNaN := fold.Fold([]engine.NodeReport{
		{Loss: 1, Trained: true}, {Loss: 3, Trained: true}, {Loss: nan, Trained: false},
	})
	if serverNaN.MeanLoss != 2 {
		t.Errorf("NaN server: mean %v, want the trainers' 2", serverNaN.MeanLoss)
	}
}

// TestDriverAccountsMatchedPairsOnly: the driver's central accounting must
// charge exactly one bidirectional transfer per matched pair.
func TestDriverAccountsMatchedPairsOnly(t *testing.T) {
	spec := testSpec(1)
	planner := engine.PlannerFunc(func(round int) core.RoundPlan {
		return core.RoundPlan{Round: round, Seed: 7, Peer: []int{1, 0, -1, -1}}
	})
	opts, _ := sapsFleet(t, spec, planner)
	eng := engine.New(opts)
	defer eng.Close()
	led := &engine.CountingLedger{}
	stats, err := eng.Step(0, led)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(stats.PayloadLen) * 4 * 2 // both directions, 4 wire bytes/value
	if led.TotalBytes() != want {
		t.Fatalf("total %d bytes, want %d (one pair, payload %d)", led.TotalBytes(), want, stats.PayloadLen)
	}
	for _, w := range []int{2, 3} {
		if s, r := led.WorkerBytes(w); s != 0 || r != 0 {
			t.Fatalf("unmatched worker %d accounted %d/%d bytes", w, s, r)
		}
	}
}
