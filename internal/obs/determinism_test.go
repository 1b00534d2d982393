package obs_test

import (
	"bytes"
	"testing"

	"sapspsgd/internal/obs"
	"sapspsgd/internal/scenario"
)

// loadSpec pulls a committed scenario spec from the scenario package's
// testdata — the same specs the determinism CI jobs replay.
func loadSpec(t *testing.T, name string) *scenario.Spec {
	t.Helper()
	s, err := scenario.Load("../scenario/testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSyncArtifactsUnchangedByObs is the package's core promise: enabling
// the metrics sink must not change a single bit of a synchronous run's
// results — loss, traffic, virtual time, or the per-round record.
func TestSyncArtifactsUnchangedByObs(t *testing.T) {
	spec := loadSpec(t, "saps-jitter.json")

	run := func() (*scenario.RunOutput, string) {
		var csv bytes.Buffer
		out, err := spec.RunFull(scenario.RunOptions{Rounds: &csv})
		if err != nil {
			t.Fatal(err)
		}
		return out, csv.String()
	}

	obs.Enable(nil)
	off, offCSV := run()

	m := obs.New()
	obs.Enable(m)
	defer obs.Enable(nil)
	on, onCSV := run()

	if off.Result.TotalBytes != on.Result.TotalBytes {
		t.Fatalf("TotalBytes: off=%d on=%d", off.Result.TotalBytes, on.Result.TotalBytes)
	}
	if off.Result.FinalLoss != on.Result.FinalLoss {
		t.Fatalf("FinalLoss: off=%v on=%v", off.Result.FinalLoss, on.Result.FinalLoss)
	}
	if off.Result.SimSeconds != on.Result.SimSeconds {
		t.Fatalf("SimSeconds: off=%v on=%v", off.Result.SimSeconds, on.Result.SimSeconds)
	}
	if offCSV == "" || offCSV != onCSV {
		t.Fatalf("per-round record differs with obs enabled:\noff %s\non %s", offCSV, onCSV)
	}

	// And the sink actually recorded the run: the instrumented layers saw
	// every round and byte the disabled run produced.
	if got := m.Engine.RoundsTotal.Value(); got < int64(spec.Rounds) {
		t.Fatalf("engine_rounds_total = %d, want >= %d", got, spec.Rounds)
	}
	if got := m.Engine.WireBytesTotal.Value(); got != on.Result.TotalBytes {
		t.Fatalf("engine_wire_bytes_total = %d, want %d", got, on.Result.TotalBytes)
	}
	if m.Engine.RoundSeconds.Count() == 0 {
		t.Fatal("engine_round_seconds recorded no observations")
	}
}

// TestAsyncArtifactsUnchangedByObs replays the async determinism gate
// with the sink enabled: the virtual-time event stream, final model bits
// and per-rank ledgers must be byte-identical to the disabled run.
func TestAsyncArtifactsUnchangedByObs(t *testing.T) {
	spec := loadSpec(t, "adpsgd-async.json")

	run := func() *scenario.RunOutput {
		out, err := spec.RunFull(scenario.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	obs.Enable(nil)
	off := run()

	m := obs.New()
	obs.Enable(m)
	defer obs.Enable(nil)
	on := run()

	if !bytes.Equal(off.Events.Bytes(), on.Events.Bytes()) {
		t.Fatal("async event log differs with obs enabled")
	}
	if len(off.Params) != len(on.Params) {
		t.Fatalf("param rank count: off=%d on=%d", len(off.Params), len(on.Params))
	}
	for rank := range off.Params {
		for i := range off.Params[rank] {
			if off.Params[rank][i] != on.Params[rank][i] {
				t.Fatalf("rank %d param %d: off=%v on=%v", rank, i, off.Params[rank][i], on.Params[rank][i])
			}
		}
	}
	for i := range off.SentBytes {
		if off.SentBytes[i] != on.SentBytes[i] || off.RecvBytes[i] != on.RecvBytes[i] {
			t.Fatalf("rank %d ledger differs with obs enabled", i)
		}
	}
	if off.Result.SimSeconds != on.Result.SimSeconds {
		t.Fatalf("SimSeconds: off=%v on=%v", off.Result.SimSeconds, on.Result.SimSeconds)
	}

	// The simulator side of the sink saw the run.
	if m.Netsim.EventsTotal.Value() == 0 {
		t.Fatal("netsim_events_total stayed zero during an async run")
	}
	if m.Engine.WireBytesTotal.Value() != on.Result.TotalBytes {
		t.Fatalf("engine_wire_bytes_total = %d, want %d", m.Engine.WireBytesTotal.Value(), on.Result.TotalBytes)
	}
}
