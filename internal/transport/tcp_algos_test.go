package transport

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/scenario"
)

// tinySpec is the shared tiny workload of the TCP tests: a [10] MLP on the
// 1×8×8 image task, with every algorithm's knob set.
func tinySpec(algo string, nodes, rounds int) *scenario.Spec {
	return &scenario.Spec{
		SchemaVersion: scenario.SpecSchemaVersion,
		Name:          "tcp-" + algo,
		Algo:          algo,
		Nodes:         nodes,
		Rounds:        rounds,
		Seed:          3,
		LR:            0.1,
		Batch:         8,
		Compression:   4,
		C:             8,
		Levels:        4,
		Fraction:      0.5,
		Model:         scenario.ModelSpec{Hidden: []int{10}},
		Data:          scenario.DataSpec{Samples: 160, Classes: 4, C: 1, H: 8, W: 8, Seed: 5},
		Bandwidth:     scenario.BandwidthSpec{Kind: "uniform", Lo: 1, Hi: 5},
	}
}

// inProcess runs spec in process at the given engine shard count (0: one per
// CPU), advancing its environment before every round as the scenario loop
// does; each, when non-nil, sees the algorithm after every round. It returns
// every trainer's final parameters, by rank, and the per-round traffic.
func inProcess(t *testing.T, spec *scenario.Spec, shards int, each func(r int, alg algos.Algorithm)) ([][]float64, []int64) {
	t.Helper()
	alg, env, err := spec.Build(shards)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := alg.(interface{ Close() }); ok {
		defer c.Close()
	}
	led := &engine.CountingLedger{}
	for r := 0; r < spec.Rounds; r++ {
		env.Tick(r)
		alg.Step(r, led)
		if each != nil {
			each(r, alg)
		}
	}
	var params [][]float64
	for _, m := range alg.Models() {
		params = append(params, m.FlatParams(nil))
	}
	return params, led.RoundBytes()
}

// fleetRun is what a loopback TCP run yields.
type fleetRun struct {
	final  []float64   // the model the coordinator collected
	byRank [][]float64 // each process's final parameters (nil for a dead one)
	bytes  []int64     // the per-round measured traffic
	kills  []int       // fault-injected kills per process, by start order
}

// runFleet deploys srv's Spec on loopback TCP, one goroutine per process,
// charging a fresh counting ledger. With a faults block every worker keeps a
// snapshot, and a worker the coordinator kills is restarted from it as often
// as the schedule has its rank return, as an operator's supervisor would.
func runFleet(t *testing.T, srv *CoordinatorServer) fleetRun {
	t.Helper()
	spec := srv.Spec
	led := &engine.CountingLedger{}
	srv.Ledger = led
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	returns := map[int]int{} // rank → scheduled rejoins
	if spec.Faults != nil {
		for _, c := range spec.Faults.Crashes {
			if c.RejoinAfter > 0 {
				returns[c.Rank]++
			}
		}
	}
	dir := t.TempDir()
	procs := spec.Recipe().Nodes()
	run := fleetRun{byRank: make([][]float64, procs), kills: make([]int, procs)}
	errs := make([]error, procs)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := ""
			if spec.Faults != nil {
				path = filepath.Join(dir, fmt.Sprintf("worker-%d.snap", i))
			}
			wc := &WorkerClient{SnapshotPath: path}
			params, err := wc.Run(addr, "127.0.0.1:0")
			for errors.Is(err, ErrCrashed) {
				if run.kills[i]++; run.kills[i] > returns[wc.Rank()] {
					params, err = nil, nil // killed for good: a permanent crash or a mortality death
					break
				}
				wc = &WorkerClient{SnapshotPath: path, Resume: true}
				params, err = wc.Run(addr, "127.0.0.1:0")
			}
			errs[i] = err
			mu.Lock()
			run.byRank[wc.Rank()] = params
			mu.Unlock()
		}(i)
	}
	run.final, err = srv.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("worker %d: %v", i, e)
		}
	}
	run.bytes = led.RoundBytes()
	return run
}

// sameBits fails unless got holds want's bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d params, want %d", what, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: param %d is %v, want %v", what, j, got[j], want[j])
		}
	}
}

// sameRun fails unless the TCP run collected the in-process model, bit for
// bit, after charging the same bytes every round. The coordinator collects
// the lowest surviving trainer's model (a hub's server model, which worker
// 0 mirrors in process).
func sameRun(t *testing.T, got fleetRun, want [][]float64, wantBytes []int64) {
	t.Helper()
	rank := 0
	for rank < len(want)-1 && got.byRank[rank] == nil {
		rank++
	}
	sameBits(t, fmt.Sprintf("tcp model against in-process rank %d", rank), got.final, want[rank])
	if len(got.bytes) != len(wantBytes) {
		t.Fatalf("%d rounds accounted, want %d", len(got.bytes), len(wantBytes))
	}
	for r := range wantBytes {
		if got.bytes[r] != wantBytes[r] {
			t.Fatalf("round %d: tcp %d bytes != in-proc %d", r, got.bytes[r], wantBytes[r])
		}
	}
}

// TestBaselinesOverTCP deploys the baselines end to end over real loopback
// TCP — the collective butterfly (PSGD), ring neighborhood gossip (D-PSGD,
// DCD-PSGD), compressed all-gather (TopK, QSGD), and the hub with a real
// parameter-server process (PS-PSGD, and FedAvg/S-FedAvg with the
// fraction-sampled participation set riding in RoundMsg.Active) — and checks
// the collected global model is bit-identical to the in-process run of the
// same spec, with identical per-round measured traffic. This is the
// acceptance contract: the TCP backend is not a SAPS special case.
func TestBaselinesOverTCP(t *testing.T) {
	for _, algo := range []string{"psgd", "d-psgd", "topk-psgd", "qsgd-psgd", "dcd-psgd", "ps-psgd", "fedavg", "s-fedavg"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			spec := tinySpec(algo, 4, 5)
			wantParams, wantBytes := inProcess(t, spec, 0, nil)
			sameRun(t, runFleet(t, &CoordinatorServer{Spec: spec}), wantParams, wantBytes)
		})
	}
}

// TestAllGatherRanksAgree: every rank of a PSGD-class fleet holds the same
// model after every round — topk-psgd and qsgd-psgd (the all-gather) and psgd
// at six ranks (the collective's all-gather fallback) — in process at one
// and two shards, and over TCP, whose six worker processes end on the
// in-process bits too. Each rank sums the gathered payloads in ascending
// sender rank, whichever executor runs it.
func TestAllGatherRanksAgree(t *testing.T) {
	const n, rounds = 6, 4
	for _, algo := range []string{"psgd", "topk-psgd", "qsgd-psgd"} {
		spec := tinySpec(algo, n, rounds)
		var want []float64
		for _, shards := range []int{1, 2} {
			final, _ := inProcess(t, spec, shards, func(r int, alg algos.Algorithm) {
				models := alg.Models()
				rank0 := models[0].FlatParams(nil)
				for i, m := range models[1:] {
					sameBits(t, fmt.Sprintf("%s shards=%d round %d rank %d against rank 0", algo, shards, r, i+1), m.FlatParams(nil), rank0)
				}
			})
			if want == nil {
				want = final[0]
			}
			sameBits(t, fmt.Sprintf("%s shards=%d against shards=1", algo, shards), final[0], want)
		}
		for rank, params := range runFleet(t, &CoordinatorServer{Spec: spec}).byRank {
			sameBits(t, fmt.Sprintf("%s tcp rank %d against in-process", algo, rank), params, want)
		}
	}
}

// refusal runs srv with no worker at all and returns its error; Run must
// return one within two seconds, before anyone registers.
func refusal(t *testing.T, srv *CoordinatorServer) error {
	t.Helper()
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run()
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(2 * time.Second):
		srv.ln.Close()
		t.Fatal("Run still waiting for workers after 2 s")
		return nil
	}
}

// TestCommittedSpecsOverTCP: one spec, two backends. Every committed
// scenario spec a TCP fleet can run goes through Spec.Build in process and
// over loopback TCP, and the collected model's bits and every round's bytes
// must agree — faults, trace replay, jitter, stragglers, sparse and
// clustered environments, every exchange pattern. The async, planner_only
// and churn specs are refused by name before any worker registers.
func TestCommittedSpecsOverTCP(t *testing.T) {
	specs, err := scenario.LoadDir("../scenario/testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			refused := ""
			switch {
			case spec.Async != nil:
				refused = "is asynchronous"
			case spec.PlannerOnly:
				refused = "is planner_only"
			case spec.Churn != nil:
				refused = "has a churn model"
			}
			if refused != "" {
				if err := refusal(t, &CoordinatorServer{Spec: spec}); err == nil || !strings.Contains(err.Error(), refused) {
					t.Fatalf("Run returned %v, want a refusal saying the scenario %s", err, refused)
				}
				return
			}
			if spec.Nodes > 32 {
				t.Skipf("%d worker processes is more than a loopback test starts", spec.Nodes)
			}
			want, wantBytes := inProcess(t, spec, 0, nil)
			sameRun(t, runFleet(t, &CoordinatorServer{Spec: spec, RejoinWait: 30 * time.Second}), want, wantBytes)
		})
	}
}
