// Trace-replay transport tests: the TCP deployment replaying a fleet trace
// (bandwidth multipliers + scripted membership), composed with a scheduled
// crash/rejoin, must reproduce the in-process run of the same membership bit for bit.
// This is the sim-vs-TCP half of the tentpole's determinism property (the
// shard-sweep half lives in internal/scenario); it runs under the race
// detector in CI.
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
	"sapspsgd/internal/fleettrace"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
)

// traceCSV scripts a 4-node, 8-round day: per-node bandwidth multipliers
// plus one scripted absence (node 2 away for rounds [2, 5)).
const traceCSV = `round,node,bw,event
0,0,1.0,
0,1,0.8,
0,2,1.2,
0,3,0.6,
2,2,,leave
3,0,0.5,
4,1,1.4,
5,2,1.0,join
6,3,1.1,
`

// traceReplay parses the test trace for an n-node fleet.
func traceReplay(t *testing.T, n int) *fleettrace.Replay {
	t.Helper()
	tr, err := fleettrace.Parse([]byte(traceCSV))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := fleettrace.NewReplay(tr, n, fleettrace.InterpHold)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

// sapsTraceReference runs the spec fully in-process under the replayed
// membership and multipliers (plus the fault schedule) and returns the
// rank-0 model and per-round traffic totals — the composition
// netsim.RoundEnv performs, stacked here by hand so the reference does not
// share the coordinator's clock.
func sapsTraceReference(t *testing.T, spec TaskSpec, n int, rp *fleettrace.Replay, sched algos.FaultSchedule) ([]float64, []int64) {
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
	base := netsim.RandomUniform(n, 1, 5, rng.New(2))
	env := netsim.NewRoundEnv(base, 0, 0, rp.Multipliers)
	alg := algos.NewSAPSDynamic(fc, env.Current(), cfg, algos.Membership{Faults: &sched, Replay: rp})
	defer alg.Close()
	led := &engine.CountingLedger{}
	for r := 0; r < spec.Rounds; r++ {
		env.Tick(r)
		alg.Step(r, led)
	}
	return alg.Models()[0].FlatParams(nil), led.RoundBytes()
}

// TestTraceReplayBitIdenticalSimVsTCP is the backend-equivalence half of the
// trace determinism property: real worker processes over TCP, replaying the
// scripted day (node 2 absent for rounds [2,5), multipliers rescaling the
// environment every boundary) composed with a scheduled kill+rejoin of rank
// 1, must produce the identical final model and per-round ledger as the
// uninterrupted in-process run of the same scenario.
func TestTraceReplayBitIdenticalSimVsTCP(t *testing.T) {
	const n, rounds = 4, 8
	spec := faultSpec(rounds)
	rp := traceReplay(t, n)
	sched := algos.FaultSchedule{
		N:      n,
		Seed:   spec.Seed,
		Events: []algos.FaultEvent{{Rank: 1, Round: 3, RejoinAfter: 2}},
	}
	wantParams, wantBytes := sapsTraceReference(t, spec, n, rp, sched)

	led := &engine.CountingLedger{}
	srv := &CoordinatorServer{
		N: n, Task: spec,
		BW:           netsim.RandomUniform(n, 1, 5, rng.New(2)),
		Gossip:       gossip.Config{BThres: 0, TThres: 10},
		Ledger:       led,
		Faults:       &sched,
		Replay:       rp,
		ReplayEvents: true,
		RejoinWait:   30 * time.Second,
		Logf:         t.Logf,
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := filepath.Join(dir, fmt.Sprintf("worker-%d.snap", i))
			wc := &WorkerClient{SnapshotPath: path}
			_, err := wc.Run(addr, "127.0.0.1:0")
			for errors.Is(err, ErrCrashed) {
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
}

// TestReplayValidation pins the coordinator's replay preconditions: events
// without a replay, a fleet-size mismatch, and membership events on a
// non-SAPS algorithm are all rejected before any worker registers.
func TestReplayValidation(t *testing.T) {
	spec := faultSpec(2)
	cases := []struct {
		name string
		mut  func(s *CoordinatorServer)
		want string
	}{
		{"events without replay", func(s *CoordinatorServer) {
			s.ReplayEvents = true
		}, "ReplayEvents without a Replay"},
		{"fleet-size mismatch", func(s *CoordinatorServer) {
			s.Replay = traceReplay(t, 6) // 6-node replay, 4-trainer task
		}, "trace replay over 6 nodes"},
		{"events on a baseline", func(s *CoordinatorServer) {
			s.Replay = traceReplay(t, 4)
			s.ReplayEvents = true
			s.Task.Algo = "psgd"
		}, "require algo saps"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			srv := &CoordinatorServer{N: 4, Task: spec, BW: netsim.RandomUniform(4, 1, 5, rng.New(2))}
			tc.mut(srv)
			if _, err := srv.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			_, err := srv.Run()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}
