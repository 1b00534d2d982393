package scenario

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sapspsgd/internal/trace"
)

// plannerGoldenSpecs are the planner-only runs testdata/planner_only.golden
// pins: Algorithm 3 over a jittered environment, RandomChoose's uniform
// matching, and Algorithm 3 over a sparse environment.
func plannerGoldenSpecs() []*Spec {
	jitter := plannerBase()
	jitter.Name = "saps-jitter"
	jitter.Bandwidth.Jitter = 0.4

	random := plannerBase()
	random.Name = "randomchoose"
	random.Algo, random.Gossip = "randomchoose", nil
	random.Nodes = 9 // odd: one worker sits every round out

	sparse := plannerBase()
	sparse.Name = "saps-sparse"
	sparse.Nodes = 24
	sparse.Bandwidth = BandwidthSpec{Kind: "sparse-uniform", Lo: 0.5, Hi: 5, Degree: 4}

	specs := []*Spec{jitter, random, sparse}
	for _, s := range specs {
		s.PlannerOnly = true
	}
	return specs
}

// plannerGoldenText renders every spec's planner-only yield: total bytes,
// the simulated clock's bits, the per-round series and the trace CSV — the
// last through an in-memory recorder and again through a streaming one.
func plannerGoldenText(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, s := range plannerGoldenSpecs() {
		out, err := s.RunFull(RunOptions{Recorder: trace.NewRecorder()})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		fmt.Fprintf(&b, "== %s\nbytes %d\nsim %016x\n", s.Name, out.Result.TotalBytes, math.Float64bits(out.Result.SimSeconds))
		for r := range out.CumBytes {
			fmt.Fprintf(&b, "round %d loss %016x bytes %d sim %016x\n", r,
				math.Float64bits(out.Losses[r]), out.CumBytes[r], math.Float64bits(out.CumSimSeconds[r]))
		}
		var csv bytes.Buffer
		if err := out.Trace.WriteCSV(&csv); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		fmt.Fprintf(&b, "-- trace\n%s", csv.String())

		var streamed bytes.Buffer
		rec := trace.NewRecorder()
		if err := rec.Stream(&streamed); err != nil {
			t.Fatal(err)
		}
		sout, err := s.RunFull(RunOptions{Recorder: rec})
		if err != nil {
			t.Fatalf("%s streamed: %v", s.Name, err)
		}
		if sout.Trace != rec || rec.Err() != nil {
			t.Fatalf("%s: streaming recorder not used (err %v)", s.Name, rec.Err())
		}
		fmt.Fprintf(&b, "-- streamed bytes %d sim %016x\n%s", sout.Result.TotalBytes,
			math.Float64bits(sout.Result.SimSeconds), streamed.String())
	}
	return b.String()
}

// TestPlannerOnlyGolden is the cross-commit oracle for planner-only runs:
// testdata/planner_only.golden was recorded from scenario.runPlannerOnly —
// the hand-rolled coordinator loop PR 20 deleted — at that PR's parent
// commit, and the planner-only Control behind engine.Driver must reproduce
// it bit for bit. It has no -update: a failure means the plan stream, the
// mask population count, the per-pair charge or the trace row drifted.
func TestPlannerOnlyGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "planner_only.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := plannerGoldenText(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines, golden has %d", len(gl), len(wl))
}
