// Cross-commit snapshot oracle, from this commit on: the files under
// testdata/snapshots were re-recorded, on purpose, by the commit that made
// snapshot format 3 (a checksummed frame around state blobs that are fixed
// word layouts throughout — raw little-endian vectors, loader cursors, RNG
// states and ledger totals; DESIGN.md §3) — format 2's gob-encoded cursors
// cannot restore after that change and no reader for them is kept. Every
// commit since must keep restoring these: each file is loaded into a freshly
// built fleet, the run continues to its last round, and every model's
// parameter bits must equal an uninterrupted run's (whose own bits
// trajectories.golden pins, unre-recorded across the format change). Nothing
// in a file depends on what the writing process encoded before, so a restored
// state also captures and encodes back to the file's very bytes. A blob is
// sections in a fixed order, so dropping or reordering one a node or codec
// captures fails here: the restore misreads the next section, or the
// continued run diverges. saps.v1.snap and worker-rank0.v1.snap are format-1
// files kept to show that they are refused loudly. (Velocity is empty in
// every file — no recipe sets momentum — and the hub delivers the server
// model before a worker uses its pulled copy, so those two do not show here.)
package algos_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sapspsgd/internal/engine"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/tensor"
	"sapspsgd/internal/transport"
)

var recordSnapshots = flag.Bool("record-snapshots", false,
	"rewrite testdata/snapshots — only together with a deliberate snapshot format change and version bump")

const (
	snapshotDir   = "testdata/snapshots"
	snapshotN     = 8
	snapshotCut   = 3 // rounds 0..2 ran before the snapshot was taken
	snapshotTotal = 8
)

// snapshotSpec is the fixtures' task: small enough that a whole-fleet
// snapshot is a few kilobytes, two local steps on 20-sample shards so the
// loader cursors cross an epoch reshuffle before the cut, every recipe knob
// set. No recipe sets SGD momentum, so Velocity is nil in every file.
func snapshotSpec(algo string) *scenario.Spec {
	s := goldenSpec(algo, snapshotN, snapshotTotal)
	s.Batch, s.LocalSteps, s.C = 4, 2, 4
	s.Model.Hidden = []int{6}
	s.Data = scenario.DataSpec{Samples: 160, Classes: 4, C: 1, H: 4, W: 4, Valid: 32, Noise: 0.35, Seed: 5}
	return s
}

// snapshotFleet assembles the spec's engine from the recipe's public parts,
// as every deployment does, and returns it with every rank's model (the hub
// server's last).
func snapshotFleet(t *testing.T, spec *scenario.Spec) (*engine.Engine, []*nn.Model) {
	t.Helper()
	rec := spec.Recipe()
	shards, _ := spec.Dataset()
	models := make([]*nn.Model, rec.Nodes())
	nodes := make([]engine.Node, rec.Nodes())
	for i := range nodes {
		m, err := spec.NewModel()
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
		if i == rec.ServerRank() {
			nodes[i] = rec.NewNode(i, m, nil, nil)
		} else {
			nodes[i] = rec.NewNode(i, m, shards[i], nil)
		}
	}
	codecs := rec.Codecs(models[0].ParamCount())
	engine.ShareMasks(nodes, codecs)
	eng := engine.New(engine.Options{
		Nodes: nodes, Codecs: codecs, Pattern: rec.Pattern(),
		Planner: specPlanner(t, spec), Shards: 1,
	})
	t.Cleanup(eng.Close)
	return eng, models
}

// specPlanner is the spec's coordinator side over its own environment.
func specPlanner(t *testing.T, spec *scenario.Spec) engine.Planner {
	t.Helper()
	_, p, err := spec.Coordinator(spec.Env())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func stepRounds(t *testing.T, eng *engine.Engine, led engine.Ledger, from, to int) {
	t.Helper()
	for r := from; r < to; r++ {
		if _, err := eng.Step(r, led); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
}

func hashModels(models []*nn.Model) string {
	all := make([][]float64, len(models))
	for i, m := range models {
		all[i] = m.FlatParams(nil)
	}
	return paramHash(all...)
}

// TestParentCommitSnapshotsRestore restores each recorded engine.Snapshot:
// saps (the masked-gossip worker), psgd (trainer-only state), dcd-psgd
// (replicas), s-fedavg (pulled model, server model, RandomK cursor) and
// topk-psgd (error-feedback residual).
func TestParentCommitSnapshotsRestore(t *testing.T) {
	for _, algo := range []string{"saps", "psgd", "dcd-psgd", "s-fedavg", "topk-psgd"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			spec := snapshotSpec(algo)
			path := filepath.Join(snapshotDir, algo+".snap")

			ref, refModels := snapshotFleet(t, spec)
			refLed := &engine.CountingLedger{}
			stepRounds(t, ref, refLed, 0, snapshotTotal)

			if *recordSnapshots {
				eng, _ := snapshotFleet(t, spec)
				led := &engine.CountingLedger{}
				stepRounds(t, eng, led, 0, snapshotCut)
				snap, err := eng.Checkpoint(snapshotCut, led)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := snap.Encode(&buf); err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(snapshotDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := engine.DecodeSnapshot(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if snap.NextRound != snapshotCut {
				t.Fatalf("fixture resumes at round %d, want %d", snap.NextRound, snapshotCut)
			}
			eng, models := snapshotFleet(t, spec)
			eng.ReplayPlans(snap.NextRound)
			led := &engine.CountingLedger{}
			if err := eng.Restore(snap, led); err != nil {
				t.Fatal(err)
			}
			again, err := eng.Checkpoint(snap.NextRound, led)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := again.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Errorf("the restored fleet checkpoints to %d bytes that are not the file's %d", buf.Len(), len(data))
			}
			// Each restored model writes the checkpoint the file holds: the
			// whole blob of a hub server, the first section of a trainer's.
			for i, m := range models {
				ckpt, blob := m.AppendCheckpoint(nil), snap.Ranks[i].Node
				if sec, _, err := tensor.CutSection(blob); !bytes.Equal(blob, ckpt) && (err != nil || !bytes.Equal(sec, ckpt)) {
					t.Errorf("rank %d: the restored model's checkpoint is not the file's", i)
				}
			}
			stepRounds(t, eng, led, snap.NextRound, snapshotTotal)

			if got, want := hashModels(models), hashModels(refModels); got != want {
				t.Errorf("models after restoring the recorded snapshot:\n got  %s\n want %s (uninterrupted)", got, want)
			}
			if got, want := joinInts(led.RoundBytes()), joinInts(refLed.RoundBytes()); got != want {
				t.Errorf("per-round bytes after restoring:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// TestFormat1SnapshotsRejected: a snapshot written before format 2 is not a
// frame at all, and both readers must say so instead of restoring anything.
func TestFormat1SnapshotsRejected(t *testing.T) {
	f, err := os.Open(filepath.Join(snapshotDir, "saps.v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if snap, err := engine.DecodeSnapshot(f); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("DecodeSnapshot of a format-1 file: snapshot %v, error %v; want an error naming the magic", snap, err)
	}
	ws, err := transport.LoadWorkerSnapshot(filepath.Join(snapshotDir, "worker-rank0.v1.snap"))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("LoadWorkerSnapshot of a format-1 file: snapshot %v, error %v; want an error naming the magic", ws, err)
	}
}

// TestParentCommitWorkerSnapshotRejoins deploys a TCP fleet whose rank 0 is
// killed at round 3 and returns two rounds later — from the recorded
// transport.WorkerSnapshot file (a worker process of the earlier commit wrote
// it at exactly that kill), not from the one this commit's worker just wrote.
// Rank 0 is the rank the coordinator collects the model from.
func TestParentCommitWorkerSnapshotRejoins(t *testing.T) {
	spec := snapshotSpec("saps")
	spec.Faults = &scenario.FaultsSpec{Crashes: []scenario.CrashSpec{{Rank: 0, Round: snapshotCut, RejoinAfter: 2}}}
	c := goldenCase{"worker-snapshot", spec}
	fixture := filepath.Join(snapshotDir, "worker-rank0.snap")
	swap := func(rank int, snapPath string) {
		if rank != 0 {
			t.Errorf("rank %d was killed, the schedule kills rank 0", rank)
			return
		}
		from, to := fixture, snapPath
		if *recordSnapshots {
			from, to = snapPath, fixture
		}
		data, err := os.ReadFile(from)
		if err == nil {
			err = os.WriteFile(to, data, 0o644)
		}
		if err != nil {
			t.Error(err)
		}
	}
	got := c.overTCP(t, swap)
	want := c.inProc(t, 1)
	for k, v := range got {
		if want[k] != v {
			t.Errorf("tcp fleet rejoined from the recorded worker snapshot, %s:\n got  %s\n want %s (in-process)", k, v, want[k])
		}
	}
	ws, err := transport.LoadWorkerSnapshot(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Rank != 0 || ws.NextRound != snapshotCut {
		t.Fatalf("fixture is rank %d at round %d, want rank 0 at round %d", ws.Rank, ws.NextRound, snapshotCut)
	}
}

// TestParentCommitWorkerSnapshotReencodes: the recorded worker file, restored
// into a rank built from the spec it carries (as `worker -resume` builds it),
// captures and saves back to the file's very bytes.
func TestParentCommitWorkerSnapshotReencodes(t *testing.T) {
	fixture := filepath.Join(snapshotDir, "worker-rank0.snap")
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := transport.LoadWorkerSnapshot(fixture)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Parse(ws.Spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := spec.Recipe()
	model, err := spec.NewModel()
	if err != nil {
		t.Fatal(err)
	}
	shards, _ := spec.Dataset()
	node := rec.NewNode(ws.Rank, model, shards[ws.Rank], nil)
	codecs := rec.Codecs(model.ParamCount())
	engine.ShareMasks([]engine.Node{node}, codecs)
	if err := engine.RestoreRank(node, codecs[ws.Rank], ws.State); err != nil {
		t.Fatal(err)
	}
	state, err := engine.CaptureRank(node, codecs[ws.Rank], engine.RankSnapshot{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "again.snap")
	again := &transport.WorkerSnapshot{Version: transport.WorkerSnapshotVersion, Rank: ws.Rank, NextRound: ws.NextRound, Spec: ws.Spec, State: state}
	if err := transport.SaveWorkerSnapshot(path, again); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the restored rank saves %d bytes that are not the file's %d", len(got), len(want))
	}
}
