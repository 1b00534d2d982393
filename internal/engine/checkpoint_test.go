// Checkpoint/resume tests: a run interrupted at a round boundary and resumed
// from a snapshot into freshly constructed state must be bit-identical to an
// uninterrupted run — model trajectories, error-feedback residuals, RNG
// cursors, and ledger totals all ride in the snapshot.
package engine_test

import (
	"bytes"
	"testing"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
)

// sapsEngine builds a fresh SAPS engine (workers + coordinator planner) from
// the shared test spec.
func sapsEngine(t *testing.T) (*engine.Engine, []*core.Worker) {
	t.Helper()
	spec := testSpec(6)
	opts, workers := sapsFleet(t, spec, specPlanner(t, spec))
	return engine.New(opts), workers
}

func runRounds(t *testing.T, eng *engine.Engine, led engine.Ledger, from, to int) {
	t.Helper()
	for r := from; r < to; r++ {
		if _, err := eng.Step(r, led); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
}

// TestCheckpointResumeSAPS interrupts a SAPS run at a round boundary,
// serializes the snapshot, restores it into a brand-new engine (fresh
// models, loaders, planner), and checks the continuation is bit-identical to
// the uninterrupted run — parameters and per-round ledger bytes.
func TestCheckpointResumeSAPS(t *testing.T) {
	const total, cut = 6, 3

	refEng, refWorkers := sapsEngine(t)
	defer refEng.Close()
	refLed := &engine.CountingLedger{}
	runRounds(t, refEng, refLed, 0, total)

	// Interrupted run: cut rounds, checkpoint, serialize.
	eng1, _ := sapsEngine(t)
	led1 := &engine.CountingLedger{}
	runRounds(t, eng1, led1, 0, cut)
	snap, err := eng1.Checkpoint(cut, led1)
	if err != nil {
		t.Fatal(err)
	}
	eng1.Close()
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := engine.DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.NextRound != cut {
		t.Fatalf("decoded NextRound %d, want %d", decoded.NextRound, cut)
	}

	// Resume: everything rebuilt from scratch, planner replayed to the cut.
	eng2, workers2 := sapsEngine(t)
	defer eng2.Close()
	eng2.ReplayPlans(decoded.NextRound)
	led2 := &engine.CountingLedger{}
	if err := eng2.Restore(decoded, led2); err != nil {
		t.Fatal(err)
	}
	runRounds(t, eng2, led2, cut, total)

	for i := range refWorkers {
		want, got := refWorkers[i].Model.FlatParams(nil), workers2[i].Model.FlatParams(nil)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("worker %d param %d: resumed %v != uninterrupted %v", i, j, got[j], want[j])
			}
		}
	}
	wantBytes, gotBytes := refLed.RoundBytes(), led2.RoundBytes()
	if len(wantBytes) != len(gotBytes) {
		t.Fatalf("%d rounds accounted, want %d", len(gotBytes), len(wantBytes))
	}
	for r := range wantBytes {
		if wantBytes[r] != gotBytes[r] {
			t.Fatalf("round %d: resumed %d bytes != uninterrupted %d", r, gotBytes[r], wantBytes[r])
		}
	}
}

// topkEngine builds a TopK-PSGD engine via the recipe — the error-feedback
// residual is the state under test.
func topkEngine(t *testing.T) (*engine.Engine, []engine.Node) {
	t.Helper()
	spec := testSpec(6)
	spec.Algo, spec.C = "topk-psgd", 8
	rec := spec.Recipe()
	shards, _ := spec.Dataset()
	nodes := make([]engine.Node, spec.Nodes)
	dim := 0
	for i := range nodes {
		model, err := spec.NewModel()
		if err != nil {
			t.Fatal(err)
		}
		dim = model.ParamCount()
		nodes[i] = rec.NewNode(i, model, shards[i], nil)
	}
	eng := engine.New(engine.Options{
		Nodes:   nodes,
		Codecs:  rec.Codecs(dim),
		Pattern: rec.Pattern(),
		Planner: specPlanner(t, spec),
	})
	return eng, nodes
}

// TestCheckpointResumeErrorFeedback does the same interrupted-vs-straight
// comparison for TopK-PSGD, whose codecs accumulate an error-feedback
// residual across rounds — forgetting it in the snapshot would diverge the
// traffic and the trajectory immediately.
func TestCheckpointResumeErrorFeedback(t *testing.T) {
	const total, cut = 6, 2

	refEng, _ := topkEngine(t)
	defer refEng.Close()
	refLed := &engine.CountingLedger{}
	runRounds(t, refEng, refLed, 0, total)
	refFinal := snapshotNodeParams(t, refEng)

	eng1, _ := topkEngine(t)
	led1 := &engine.CountingLedger{}
	runRounds(t, eng1, led1, 0, cut)
	snap, err := eng1.Checkpoint(cut, led1)
	if err != nil {
		t.Fatal(err)
	}
	eng1.Close()

	eng2, _ := topkEngine(t)
	defer eng2.Close()
	eng2.ReplayPlans(snap.NextRound)
	led2 := &engine.CountingLedger{}
	if err := eng2.Restore(snap, led2); err != nil {
		t.Fatal(err)
	}
	runRounds(t, eng2, led2, cut, total)
	gotFinal := snapshotNodeParams(t, eng2)

	for i := range refFinal {
		for j := range refFinal[i] {
			if refFinal[i][j] != gotFinal[i][j] {
				t.Fatalf("node %d param %d: resumed %v != uninterrupted %v", i, j, gotFinal[i][j], refFinal[i][j])
			}
		}
	}
	wantBytes, gotBytes := refLed.RoundBytes(), led2.RoundBytes()
	for r := range wantBytes {
		if wantBytes[r] != gotBytes[r] {
			t.Fatalf("round %d: resumed %d bytes != uninterrupted %d", r, gotBytes[r], wantBytes[r])
		}
	}
}

// snapshotNodeParams reads every node's current state blob — a convenient
// bit-exact fingerprint of the full rank state (parameters, cursors).
func snapshotNodeParams(t *testing.T, eng *engine.Engine) [][]byte {
	t.Helper()
	nodes := eng.Nodes()
	out := make([][]byte, len(nodes))
	for i, n := range nodes {
		s, ok := n.(engine.Stateful)
		if !ok {
			t.Fatalf("node %T not stateful", n)
		}
		b, err := s.AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}
