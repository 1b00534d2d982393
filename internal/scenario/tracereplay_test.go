// Trace-replay scenario tests: the committed saps-trace-noniid spec (edge
// trace + Dirichlet partition) is the determinism property's subject — its
// replay must be bit-identical at every shard count — and the trace/
// partition blocks' spec-level behavior is pinned here.
package scenario

import (
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestTraceReplayDeterministicAcrossShards is the tentpole's shard-sweep
// property: replaying a trace scenario serially, at 1, 4, and NumCPU engine
// shards yields bit-identical traffic, loss, and simulated time. (The
// sim-vs-TCP half of the property lives in internal/transport.)
func TestTraceReplayDeterministicAcrossShards(t *testing.T) {
	spec, err := Load(filepath.Join("testdata", "saps-trace-noniid.json"))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := runResult(spec, 1) // serial reference
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	for _, shards := range counts {
		got, err := runResult(spec, shards)
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalBytes != serial.TotalBytes {
			t.Errorf("shards=%d: %d bytes, serial moved %d", shards, got.TotalBytes, serial.TotalBytes)
		}
		if got.FinalLoss != serial.FinalLoss {
			t.Errorf("shards=%d: final loss %v, serial %v", shards, got.FinalLoss, serial.FinalLoss)
		}
		if got.SimSeconds != serial.SimSeconds {
			t.Errorf("shards=%d: sim time %v, serial %v", shards, got.SimSeconds, serial.SimSeconds)
		}
	}
}

// TestTraceMembershipReplayed checks the events actually drive membership:
// the edge trace's scripted absences show up in the per-round record's
// active-worker counts at exactly the scripted rounds.
func TestTraceMembershipReplayed(t *testing.T) {
	spec, err := Load(filepath.Join("testdata", "saps-trace-noniid.json"))
	if err != nil {
		t.Fatal(err)
	}
	_, rows := runRounds(t, spec, 0)
	if len(rows) != spec.Rounds {
		t.Fatalf("%d rows, ran %d rounds", len(rows), spec.Rounds)
	}
	// edge.csv: node 6 is away for [10, 18), node 7 for [12, 22); every
	// other node stays for the spec's 24 rounds.
	want := map[int]int{0: 12, 9: 12, 10: 11, 12: 10, 18: 11, 22: 12, 23: 12}
	for round, active := range want {
		if got := rows[round]["active"]; got != strconv.Itoa(active) {
			t.Errorf("round %d: %s active workers, trace scripts %d", round, got, active)
		}
	}
}

// TestTraceMultipliersApplyToBaselines checks the algo-agnostic half of the
// replay: a bandwidth-only trace reshapes a baseline's link environment
// (simulated time shifts) without touching its numerics (loss and bytes are
// bandwidth-independent for psgd).
func TestTraceMultipliersApplyToBaselines(t *testing.T) {
	base := minimal()
	base.Nodes, base.Data.Samples = 12, 240
	plain, err := runResult(&base, 1)
	if err != nil {
		t.Fatal(err)
	}
	traced := base.Clone()
	traced.Trace = &TraceSpec{File: filepath.Join("testdata", "traces", "edge.csv")}
	got, err := runResult(traced, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.FinalLoss != plain.FinalLoss || got.TotalBytes != plain.TotalBytes {
		t.Errorf("bandwidth-only trace changed numerics: loss %v vs %v, bytes %d vs %d",
			got.FinalLoss, plain.FinalLoss, got.TotalBytes, plain.TotalBytes)
	}
	if got.SimSeconds == plain.SimSeconds {
		t.Errorf("trace multipliers did not move simulated time (%v)", got.SimSeconds)
	}
}

// TestTraceComposesWithJitterAndFaults runs the full composition: jittered
// base bandwidth, trace multipliers on top, trace membership intersected
// with a scheduled crash — and the result must still be shard-deterministic.
func TestTraceComposesWithJitterAndFaults(t *testing.T) {
	spec, err := Load(filepath.Join("testdata", "saps-trace-noniid.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec.Bandwidth.Jitter = 0.2
	spec.Faults = &FaultsSpec{Crashes: []CrashSpec{{Rank: 0, Round: 2, RejoinAfter: 3}}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	a, err := runResult(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runResult(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalBytes != b.TotalBytes || a.FinalLoss != b.FinalLoss || a.SimSeconds != b.SimSeconds {
		t.Errorf("composed run diverges across shards: %+v vs %+v", a, b)
	}
	_, rows := runRounds(t, spec, 1)
	// Round 2: rank 0 crashed on top of full trace membership.
	if got := rows[2]["active"]; got != "11" {
		t.Errorf("round 2 active workers %s, want 11 (scheduled crash on top of trace)", got)
	}
}

// TestTraceFileErrors pins the runtime (non-Validate) failures: a missing
// file and a trace larger than the fleet fail with actionable errors.
func TestTraceFileErrors(t *testing.T) {
	spec := minimal()
	spec.Trace = &TraceSpec{File: filepath.Join("testdata", "traces", "no-such.csv")}
	if _, err := runResult(&spec, 1); err == nil {
		t.Error("missing trace file accepted")
	}
	small := minimal() // 4 nodes, edge.csv references 12
	small.Trace = &TraceSpec{File: filepath.Join("testdata", "traces", "edge.csv")}
	_, err := runResult(&small, 1)
	if err == nil || !strings.Contains(err.Error(), "node 11") {
		t.Errorf("oversized trace: err = %v", err)
	}
}

// TestSpecDirResolution: Load resolves the trace file against the spec's
// directory, and against whatever directory the spec is bound to.
func TestSpecDirResolution(t *testing.T) {
	spec, err := Load(filepath.Join("testdata", "saps-trace-noniid.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spec.TracePath(), filepath.Join("testdata", "traces", "edge.csv"); got != want {
		t.Fatalf("TracePath = %q, want %q", got, want)
	}
	spec.dir = "elsewhere"
	if got, want := spec.TracePath(), filepath.Join("elsewhere", "traces", "edge.csv"); got != want {
		t.Fatalf("rebound, TracePath = %q, want %q", got, want)
	}
	if minimalSpec := minimal(); minimalSpec.TracePath() != "" {
		t.Fatal("TracePath without a trace block")
	}
}

// TestNonIIDPartitionRuns pins the partition block end to end: the two skew
// kinds run, are shard-deterministic, and differ from the IID split.
func TestNonIIDPartitionRuns(t *testing.T) {
	base := minimal()
	base.Nodes, base.Data.Samples, base.Rounds = 8, 240, 3
	iid, err := runResult(&base, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"dirichlet", "quantity"} {
		spec := base.Clone()
		spec.Partition = &PartitionSpec{Kind: kind, Alpha: 0.3, MinPerNode: 2}
		a, err := runResult(spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		b, err := runResult(spec, 4)
		if err != nil {
			t.Fatal(err)
		}
		if a.FinalLoss != b.FinalLoss || a.TotalBytes != b.TotalBytes {
			t.Errorf("%s: shard-dependent result", kind)
		}
		if a.FinalLoss == iid.FinalLoss {
			t.Errorf("%s: loss identical to IID split (%v) — partition not applied", kind, a.FinalLoss)
		}
	}
}
