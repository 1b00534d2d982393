package scenario

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
// the simulated clock's bits, the per-round series and the per-round record.
func plannerGoldenText(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, s := range plannerGoldenSpecs() {
		var rounds bytes.Buffer
		out, err := s.RunFull(RunOptions{Rounds: &rounds})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		fmt.Fprintf(&b, "== %s\nbytes %d\nsim %016x\n", s.Name, out.Result.TotalBytes, math.Float64bits(out.Result.SimSeconds))
		for r := range out.CumBytes {
			fmt.Fprintf(&b, "round %d loss %016x bytes %d sim %016x\n", r,
				math.Float64bits(out.Losses[r]), out.CumBytes[r], math.Float64bits(out.CumSimSeconds[r]))
		}
		fmt.Fprintf(&b, "-- rounds\n%s", rounds.String())
	}
	return b.String()
}

// TestPlannerOnlyGolden is the cross-commit oracle for planner-only runs:
// the bytes, sim and round lines of testdata/planner_only.golden were
// recorded from scenario.runPlannerOnly — a hand-rolled coordinator loop
// since deleted — and the planner-only Control behind engine.Driver must
// reproduce them bit for bit; its "-- rounds" sections were recorded when the
// per-round record replaced a trace recorder's CSV. It has no -update: a
// failure means the plan stream, the mask population count, the per-pair
// charge or the row drifted.
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
