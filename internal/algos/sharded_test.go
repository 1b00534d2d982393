// Sharded-runtime determinism: every baseline, executed on the engine's
// phased sharded runtime at any shard count, must be bit-identical in model
// trajectory and byte-identical in ledger traffic to the serial reference
// (RuntimeShards == 1; golden_test.go pins that reference to the recorded
// trajectories of the deleted blocking pool). Run with -race to exercise the
// shard executors' memory ordering (the CI workflow does).
package algos

import (
	"fmt"
	"runtime"
	"testing"

	"sapspsgd/internal/engine"
)

// shardSweep is the shard counts of the determinism sweep: fully serial,
// mid-parallel, and machine-width.
func shardSweep() []int {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// runTrajectory steps an algorithm for rounds against a counting ledger and
// returns the per-round flattened parameter snapshots of every model.
func runTrajectory(alg Algorithm, rounds int) (traj [][][]float64, led *engine.CountingLedger) {
	led = &engine.CountingLedger{}
	for r := 0; r < rounds; r++ {
		alg.Step(r, led)
		snap := make([][]float64, len(alg.Models()))
		for m, model := range alg.Models() {
			snap[m] = model.FlatParams(nil)
		}
		traj = append(traj, snap)
	}
	return traj, led
}

// assertSameRun fails unless the sharded run reproduced the serial reference
// bit for bit: parameters at every round, and the ledger's per-round and
// per-worker byte totals.
func assertSameRun(t *testing.T, label string, n int,
	refTraj, gotTraj [][][]float64, refLed, gotLed *engine.CountingLedger) {
	t.Helper()
	for r := range refTraj {
		if len(refTraj[r]) != len(gotTraj[r]) {
			t.Fatalf("%s round %d: %d vs %d models", label, r, len(refTraj[r]), len(gotTraj[r]))
		}
		for m := range refTraj[r] {
			for j := range refTraj[r][m] {
				if refTraj[r][m][j] != gotTraj[r][m][j] {
					t.Fatalf("%s round %d model %d param %d: serial %v != sharded %v",
						label, r, m, j, refTraj[r][m][j], gotTraj[r][m][j])
				}
			}
		}
	}
	refRounds, gotRounds := refLed.RoundBytes(), gotLed.RoundBytes()
	for r := range refRounds {
		if refRounds[r] != gotRounds[r] {
			t.Fatalf("%s round %d bytes: serial %d != sharded %d", label, r, refRounds[r], gotRounds[r])
		}
	}
	// Rank n covers the hub server account of centralized algorithms
	// (serverless algorithms have zeros there on both sides).
	for i := 0; i <= n; i++ {
		rs, rr := refLed.WorkerBytes(i)
		gs, gr := gotLed.WorkerBytes(i)
		if rs != gs || rr != gr {
			t.Fatalf("%s worker %d bytes: serial %d/%d != sharded %d/%d", label, i, rs, rr, gs, gr)
		}
	}
}

// TestShardedEquivalenceAllBaselines sweeps every baseline across shard
// counts 1, 4, and NumCPU and checks each against the serial run.
func TestShardedEquivalenceAllBaselines(t *testing.T) {
	const n, rounds = 8, 4
	for _, b := range allBaselineBuilders(n) {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			fcRef, bw, _ := testSetup(t, n)
			fcRef.RuntimeShards = 1
			refTraj, refLed := runTrajectory(b.build(fcRef, bw), rounds)
			for _, shards := range shardSweep() {
				fc, _, _ := testSetup(t, n)
				fc.RuntimeShards = shards
				gotTraj, gotLed := runTrajectory(b.build(fc, bw), rounds)
				assertSameRun(t, fmt.Sprintf("%s/shards=%d", b.name, shards), n,
					refTraj, gotTraj, refLed, gotLed)
			}
		})
	}
}

// TestShardedEquivalenceNonPowerOfTwoCollective pins the collective
// pattern's all-gather fallback (fleet sizes that are not powers of two)
// onto the sharded runtime.
func TestShardedEquivalenceNonPowerOfTwoCollective(t *testing.T) {
	const n, rounds = 6, 4
	fcRef, _, _ := testSetup(t, n)
	fcRef.RuntimeShards = 1
	refTraj, refLed := runTrajectory(NewPSGD(fcRef), rounds)
	for _, shards := range shardSweep() {
		fc, _, _ := testSetup(t, n)
		fc.RuntimeShards = shards
		gotTraj, gotLed := runTrajectory(NewPSGD(fc), rounds)
		assertSameRun(t, fmt.Sprintf("psgd-n6/shards=%d", shards), n, refTraj, gotTraj, refLed, gotLed)
	}
}

// TestShardedEquivalenceChurn drives dynamic membership (inactive ranks
// skipped by the shard executors) through the sweep: SAPS under leave/rejoin
// churn must stay bit-identical to the serial run at every shard count.
func TestShardedEquivalenceChurn(t *testing.T) {
	const n, rounds = 8, 6
	churn := ChurnModel{LeaveProb: 0.3, JoinProb: 0.5, MinActive: 2}
	fcRef, bw, _ := testSetup(t, n)
	fcRef.RuntimeShards = 1
	refTraj, refLed := runTrajectory(newSAPSFamily("saps", fcRef, bw, sapsConfig(n), Membership{Churn: &churn}), rounds)
	for _, shards := range shardSweep() {
		fc, _, _ := testSetup(t, n)
		fc.RuntimeShards = shards
		gotTraj, gotLed := runTrajectory(newSAPSFamily("saps", fc, bw, sapsConfig(n), Membership{Churn: &churn}), rounds)
		assertSameRun(t, fmt.Sprintf("saps-churn/shards=%d", shards), n, refTraj, gotTraj, refLed, gotLed)
	}
}

// TestShardedShardCountClamp: more shards than ranks must degrade to
// rank-count shards, not spawn idle executors or crash.
func TestShardedShardCountClamp(t *testing.T) {
	const n, rounds = 4, 3
	fcRef, bw, _ := testSetup(t, n)
	fcRef.RuntimeShards = 1
	refTraj, refLed := runTrajectory(NewSAPS(fcRef, bw, sapsConfig(n)), rounds)
	fc, _, _ := testSetup(t, n)
	fc.RuntimeShards = 64
	gotTraj, gotLed := runTrajectory(NewSAPS(fc, bw, sapsConfig(n)), rounds)
	assertSameRun(t, "saps/shards=64>n", n, refTraj, gotTraj, refLed, gotLed)
}
