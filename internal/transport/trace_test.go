// Trace-replay transport tests: the TCP deployment replaying a fleet trace
// (bandwidth multipliers + scripted membership), composed with a scheduled
// crash/rejoin, must reproduce the in-process run of the same spec bit for
// bit. This is the sim-vs-TCP half of the trace determinism property (the
// shard-sweep half lives in internal/scenario); it runs under the race
// detector in CI.
package transport

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sapspsgd/internal/scenario"
)

// TestTraceReplayBitIdenticalSimVsTCP is the backend-equivalence half of the
// trace determinism property: real worker processes over TCP run the
// committed saps-trace-noniid spec — the edge trace's multipliers rescaling
// the environment every boundary and its battery nodes leaving and
// rejoining, over a Dirichlet label skew — with a scheduled kill+rejoin of
// rank 1 on top, and must produce the in-process run's final model and
// per-round ledger.
func TestTraceReplayBitIdenticalSimVsTCP(t *testing.T) {
	spec, err := scenario.Load("../scenario/testdata/saps-trace-noniid.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Faults = &scenario.FaultsSpec{Crashes: []scenario.CrashSpec{{Rank: 1, Round: 3, RejoinAfter: 2}}}
	wantParams, wantBytes := inProcess(t, spec, 0, nil)
	got := runFleet(t, &CoordinatorServer{Spec: spec, RejoinWait: 30 * time.Second, Logf: t.Logf})
	sameRun(t, got, wantParams, wantBytes)
	if total := sum(got.kills); total != 1 {
		t.Fatalf("%d kills, want the schedule's 1", total)
	}
}

// TestReplayValidation pins the coordinator's trace preconditions: a trace
// naming more nodes than the spec has, membership events on a non-SAPS
// algorithm, and a trace file that is not there are all refused before any
// worker registers.
func TestReplayValidation(t *testing.T) {
	wide := filepath.Join(t.TempDir(), "wide.csv")
	if err := os.WriteFile(wide, []byte("round,node,bw,event\n0,5,0.5,\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		trace scenario.TraceSpec
		algo  string
		want  string
	}{
		{"fleet-size mismatch", scenario.TraceSpec{File: wide}, "saps", "references node 5 but the fleet has only 4"},
		{"events on a baseline", scenario.TraceSpec{File: wide, Events: true}, "psgd", "trace events require algo saps"},
		{"missing trace file", scenario.TraceSpec{File: wide + ".gone"}, "saps", "no such file"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			spec := tinySpec(tc.algo, 4, 2)
			spec.Trace = &tc.trace
			srv := &CoordinatorServer{Spec: spec}
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
