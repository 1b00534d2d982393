// Fault-tolerance tests: the TCP deployment under real process kills must
// reproduce the in-process engine's fault simulation bit for bit (scheduled
// crash + rejoin from snapshot), and must survive unscheduled worker losses
// by aborting, rolling back, and re-planning the round. These run under the
// race detector in CI (the transport package is in the race matrix).
package transport

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/obs"
	"sapspsgd/internal/rng"
)

// faultSpec is the shared tiny SAPS workload for the fault tests.
func faultSpec(rounds int) TaskSpec {
	return TaskSpec{
		Arch: "mlp", C: 1, H: 8, W: 8, Classes: 4, Hidden: []int{10},
		Samples: 160, DataSeed: 5,
		LR: 0.1, Batch: 8, Compression: 4, LocalSteps: 1,
		Rounds: rounds, Seed: 3,
	}
}

// sapsFaultsReference runs the same spec fully in-process under the fault
// schedule (scheduled-dead workers excluded from planning) and returns the
// rank-0 model and per-round traffic totals.
func sapsFaultsReference(t *testing.T, spec TaskSpec, n int, sched algos.FaultSchedule) ([]float64, []int64) {
	t.Helper()
	shards, _ := spec.BuildShards(n)
	fc := algos.FleetConfig{
		N: n,
		Factory: func() *nn.Model {
			m, err := spec.BuildModel()
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		Shards: shards,
		LR:     spec.LR,
		Batch:  spec.Batch,
		Seed:   spec.Seed,
	}
	cfg := core.Config{
		Workers:     n,
		Compression: spec.Compression,
		LR:          spec.LR,
		Batch:       spec.Batch,
		LocalSteps:  spec.LocalSteps,
		Gossip:      gossip.Config{BThres: 0, TThres: 10},
		Seed:        spec.Seed,
	}
	bw := netsim.RandomUniform(n, 1, 5, rng.New(2))
	alg := algos.NewSAPSDynamic(fc, bw, cfg, algos.Membership{Faults: &sched})
	defer alg.Close()
	led := &engine.CountingLedger{}
	for r := 0; r < spec.Rounds; r++ {
		alg.Step(r, led)
	}
	return alg.Models()[0].FlatParams(nil), led.RoundBytes()
}

// runFaultFleet deploys n supervised workers (each restarted with Resume
// whenever a fault-injected kill takes it down, exactly as an operator would)
// against a coordinator running spec under sched, and checks the final model
// and the per-round ledger are the in-process reference's, bit for bit. It
// returns how many times each worker process was killed (indexed by start
// order, not rank). logf receives the coordinator's progress lines on the
// coordinator's goroutine.
func runFaultFleet(t *testing.T, n int, spec TaskSpec, sched algos.FaultSchedule, logf func(srv *CoordinatorServer, line string)) []int {
	t.Helper()
	wantParams, wantBytes := sapsFaultsReference(t, spec, n, sched)

	led := &engine.CountingLedger{}
	srv := &CoordinatorServer{
		N: n, Task: spec,
		BW:         netsim.RandomUniform(n, 1, 5, rng.New(2)),
		Gossip:     gossip.Config{BThres: 0, TThres: 10},
		Ledger:     led,
		Faults:     &sched,
		RejoinWait: 10 * time.Second,
	}
	srv.Logf = func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		t.Log(line)
		if logf != nil {
			logf(srv, line)
		}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var wg sync.WaitGroup
	errs := make([]error, n)
	crashes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := filepath.Join(dir, fmt.Sprintf("worker-%d.snap", i))
			wc := &WorkerClient{SnapshotPath: path}
			_, err := wc.Run(addr, "127.0.0.1:0")
			for errors.Is(err, ErrCrashed) {
				crashes[i]++
				wc = &WorkerClient{SnapshotPath: path, Resume: true}
				_, err = wc.Run(addr, "127.0.0.1:0")
			}
			errs[i] = err
		}(i)
	}
	final, err := srv.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("worker %d: %v", i, e)
		}
	}

	if len(final) != len(wantParams) {
		t.Fatalf("collected %d params, want %d", len(final), len(wantParams))
	}
	for j := range final {
		if final[j] != wantParams[j] {
			t.Fatalf("param %d: tcp %v != in-proc %v", j, final[j], wantParams[j])
		}
	}
	got := led.RoundBytes()
	if len(got) != len(wantBytes) {
		t.Fatalf("%d rounds accounted, want %d", len(got), len(wantBytes))
	}
	for r := range got {
		if got[r] != wantBytes[r] {
			t.Fatalf("round %d: tcp %d bytes != in-proc %d", r, got[r], wantBytes[r])
		}
	}
	return crashes
}

// TestKillAndRejoinBitIdentical is the acceptance contract of the
// fault-tolerant TCP runtime: a real worker process is killed at a scheduled
// round boundary (abrupt teardown after its last committed snapshot), the
// fleet trains on without it, a fresh process resumes from the snapshot and
// rejoins at the scheduled round — and the final model is bit-identical,
// with a byte-identical per-round ledger, to the uninterrupted in-process
// run of the same fault scenario.
func TestKillAndRejoinBitIdentical(t *testing.T) {
	const n, rounds = 4, 8
	spec := faultSpec(rounds)
	sched := algos.FaultSchedule{
		N:      n,
		Seed:   spec.Seed,
		Events: []algos.FaultEvent{{Rank: 2, Round: 3, RejoinAfter: 2}},
	}
	crashes := runFaultFleet(t, n, spec, sched, nil)
	total := 0
	for _, c := range crashes {
		total += c
	}
	if total != 1 {
		t.Fatalf("%d workers crashed, want exactly 1 (the scheduled kill)", total)
	}
}

// TestEarlyRejoinerHeldOutUntilWindowCloses is the regression for the early
// rejoiner: a worker restarted at once lands its Rejoin while the boundary
// that killed it is still being prepared, two rounds before the schedule has
// it back. Admitted there (as the coordinator used to), it was crashed again
// at the next boundary, rejected as stale after that, and the run timed out.
// The arrival is forced, not raced: the schedule kills ranks 1 and 2 at the
// same boundary, and the coordinator is held (inside its own log call, on its
// own goroutine) before it kills rank 2 until rank 1's handshake is queued.
func TestEarlyRejoinerHeldOutUntilWindowCloses(t *testing.T) {
	const n, rounds = 5, 8
	spec := faultSpec(rounds)
	sched := algos.FaultSchedule{
		N:    n,
		Seed: spec.Seed,
		Events: []algos.FaultEvent{
			{Rank: 1, Round: 3, RejoinAfter: 2},
			{Rank: 2, Round: 3, RejoinAfter: 2},
		},
	}
	held := false
	crashes := runFaultFleet(t, n, spec, sched, func(srv *CoordinatorServer, line string) {
		if !strings.Contains(line, "crashing rank 2 at round 3") {
			return
		}
		held = true
		for deadline := time.Now().Add(10 * time.Second); len(srv.rejoinCh) == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("rank 1's rejoin handshake never arrived")
				return
			}
		}
	})
	if !held {
		t.Fatal("the coordinator never reached rank 2's kill at round 3")
	}
	total := 0
	for _, c := range crashes {
		total += c
		if c > 1 {
			t.Errorf("a worker was killed %d times, want at most once", c)
		}
	}
	if total != 2 {
		t.Fatalf("%d kills, want the schedule's 2", total)
	}
}

// TestUnscheduledCrashReplans exercises the detection path: a worker dies
// without warning (no fault schedule, the coordinator is not told), the
// affected round aborts, every survivor rolls back to its round-boundary
// snapshot, and the coordinator re-plans the round over the remaining fleet.
// The run must complete all rounds with the surviving workers — and, the
// coordinator's driver being the engine's, end with engine_rounds_total at the
// committed rounds and engine_wire_bytes_total at the ledger's traffic, the
// aborted attempt counted in neither.
func TestUnscheduledCrashReplans(t *testing.T) {
	const n, rounds, dieAt = 4, 6, 3
	spec := faultSpec(rounds)
	metrics := obs.New()
	obs.Enable(metrics)
	defer obs.Disable()

	led := &engine.CountingLedger{}
	srv := &CoordinatorServer{
		N: n, Task: spec,
		BW:     netsim.RandomUniform(n, 1, 5, rng.New(2)),
		Gossip: gossip.Config{BThres: 0, TThres: 10},
		Ledger: led,
		Logf:   t.Logf,
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
			if i == 0 {
				// This client (whatever rank it registers as) tears down
				// abruptly upon receiving the round-3 control message.
				die := dieAt
				wc.dieAtRound = &die
			}
			_, errs[i] = wc.Run(addr, "127.0.0.1:0")
		}(i)
	}
	final, err := srv.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for i, e := range errs[1:] {
		if e != nil {
			t.Fatalf("surviving worker %d: %v", i+1, e)
		}
	}
	if !errors.Is(errs[0], ErrCrashed) {
		t.Fatalf("killed worker returned %v, want ErrCrashed", errs[0])
	}
	if len(final) == 0 {
		t.Fatal("no final model collected")
	}
	if got := led.Rounds(); got != rounds {
		t.Fatalf("%d rounds charged, want %d (aborted attempts must not be charged)", got, rounds)
	}
	em := metrics.EngineM()
	if got := em.RoundsTotal.Value(); got != rounds {
		t.Errorf("engine_rounds_total %d, want the %d committed rounds", got, rounds)
	}
	if got, want := em.WireBytesTotal.Value(), 2*led.TotalBytes(); got != want || want == 0 {
		t.Errorf("engine_wire_bytes_total %d, want every payload at both its ends: %d", got, want)
	}
}

// TestRejoinRejectsStaleSnapshot covers the integrity check on both sides:
// a worker resuming from a tampered (wrong-round) snapshot is rejected with
// an actionable reason, and the coordinator times out waiting for the
// scheduled rejoiner rather than silently diverging.
func TestRejoinRejectsStaleSnapshot(t *testing.T) {
	const n, rounds = 4, 8
	spec := faultSpec(rounds)
	sched := algos.FaultSchedule{
		N:      n,
		Seed:   spec.Seed,
		Events: []algos.FaultEvent{{Rank: 1, Round: 2, RejoinAfter: 2}},
	}

	led := &engine.CountingLedger{}
	srv := &CoordinatorServer{
		N: n, Task: spec,
		BW:         netsim.RandomUniform(n, 1, 5, rng.New(2)),
		Gossip:     gossip.Config{BThres: 0, TThres: 10},
		Ledger:     led,
		Faults:     &sched,
		RejoinWait: 2 * time.Second,
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var wg sync.WaitGroup
	var rejoinErr error
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := filepath.Join(dir, fmt.Sprintf("worker-%d.snap", i))
			wc := &WorkerClient{SnapshotPath: path}
			_, err := wc.Run(addr, "127.0.0.1:0")
			if !errors.Is(err, ErrCrashed) {
				return // survivors end with the coordinator's teardown
			}
			// Tamper: pretend the snapshot is one round older than it is.
			snap, err := LoadWorkerSnapshot(path)
			if err != nil {
				rejoinErr = err
				return
			}
			snap.NextRound--
			if err := SaveWorkerSnapshot(path, snap); err != nil {
				rejoinErr = err
				return
			}
			wc = &WorkerClient{SnapshotPath: path, Resume: true}
			_, rejoinErr = wc.Run(addr, "127.0.0.1:0")
		}(i)
	}
	_, err = srv.Run()
	wg.Wait()
	if err == nil || !strings.Contains(err.Error(), "did not rejoin") {
		t.Fatalf("coordinator error %v, want rejoin timeout", err)
	}
	if rejoinErr == nil || !strings.Contains(rejoinErr.Error(), "rejoin rejected") {
		t.Fatalf("rejoin error %v, want rejection with reason", rejoinErr)
	}
	if !strings.Contains(rejoinErr.Error(), "died at round") {
		t.Fatalf("rejection reason %q lacks the round mismatch", rejoinErr)
	}
}
