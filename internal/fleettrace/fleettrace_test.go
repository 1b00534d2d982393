package fleettrace

import (
	"strings"
	"testing"
)

// sample is a small well-formed trace exercising both columns: node 0 has a
// bandwidth series, node 1 leaves and rejoins, node 2 does both at once.
const sample = `round,node,bw,event
# node 0: bandwidth decays then recovers
0,0,1.0,
4,0,0.25,
8,0,1.0,
# node 1: offline for rounds [2, 5)
2,1,,leave
5,1,,join
# node 2: slows down as it leaves, recovers on rejoin
3,2,0.5,leave
6,2,1.0,join
`

func mustParse(t *testing.T, data string) *Trace {
	t.Helper()
	tr, err := Parse([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParseSample(t *testing.T) {
	tr := mustParse(t, sample)
	if tr.MaxNode != 2 {
		t.Fatalf("MaxNode = %d, want 2", tr.MaxNode)
	}
	if tr.MaxRound != 8 {
		t.Fatalf("MaxRound = %d, want 8", tr.MaxRound)
	}
	events := 0
	for _, s := range tr.series {
		events += len(s.events)
	}
	if len(tr.series) != 3 || events != 4 {
		t.Fatalf("%d node series holding %d events, want 3 holding 4", len(tr.series), events)
	}
}

// TestNodeOutsideFleet: a node id is checked against the fleet, and the
// error names its line; the largest id a row can spell neither overflows
// nor sizes anything in Parse.
func TestNodeOutsideFleet(t *testing.T) {
	for _, id := range []string{"9223372036854775807", "1099511627776"} {
		tr := mustParse(t, "round,node,bw,event\n0,1,0.5,\n0,"+id+",1.5,\n1,3,,leave\n")
		_, err := NewReplay(tr, 4, InterpHold)
		if err == nil || !strings.Contains(err.Error(), "line 3: trace references node "+id) {
			t.Fatalf("node %s in a 4-node fleet: err = %v", id, err)
		}
	}
}

func TestHoldSemantics(t *testing.T) {
	tr := mustParse(t, sample)
	rp, err := NewReplay(tr, 4, InterpHold)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{0: 1.0, 3: 1.0, 4: 0.25, 7: 0.25, 8: 1.0, 100: 1.0}
	for round, mult := range want {
		got := rp.Multipliers(round, nil)
		if got[0] != mult {
			t.Errorf("hold: node 0 round %d = %v, want %v", round, got[0], mult)
		}
		// Node 3 is outside the trace: always 1.
		if got[3] != 1 {
			t.Errorf("hold: untraced node 3 round %d = %v, want 1", round, got[3])
		}
	}
}

func TestLinearSemantics(t *testing.T) {
	tr := mustParse(t, sample)
	rp, err := NewReplay(tr, 4, InterpLinear)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0: 1.0 @0 → 0.25 @4 → 1.0 @8; held flat outside [0, 8].
	want := map[int]float64{0: 1.0, 2: 0.625, 4: 0.25, 6: 0.625, 8: 1.0, 9: 1.0}
	for round, mult := range want {
		got := rp.Multipliers(round, nil)
		if got[0] != mult {
			t.Errorf("linear: node 0 round %d = %v, want %v", round, got[0], mult)
		}
	}
	// The first sample holds backwards: a series starting at round 4 is flat
	// before it under both modes.
	late := mustParse(t, "round,node,bw,event\n4,0,0.5,\n8,0,1.0,\n")
	rp, err = NewReplay(late, 1, InterpLinear)
	if err != nil {
		t.Fatal(err)
	}
	if got := rp.Multipliers(0, nil); got[0] != 0.5 {
		t.Errorf("backward hold: round 0 = %v, want 0.5", got[0])
	}
}

func TestActiveSemantics(t *testing.T) {
	tr := mustParse(t, sample)
	rp, err := NewReplay(tr, 4, InterpHold)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 is absent for rounds [2, 5); node 2 for [3, 6).
	type row struct {
		round int
		want  [4]bool
	}
	for _, c := range []row{
		{0, [4]bool{true, true, true, true}},
		{2, [4]bool{true, false, true, true}},
		{3, [4]bool{true, false, false, true}},
		{5, [4]bool{true, true, false, true}},
		{6, [4]bool{true, true, true, true}},
		{99, [4]bool{true, true, true, true}},
	} {
		got := rp.Active(c.round, nil)
		for i, w := range c.want {
			if got[i] != w {
				t.Errorf("round %d node %d active = %v, want %v", c.round, i, got[i], w)
			}
		}
	}
}

func TestQueryIsPureFunctionOfRound(t *testing.T) {
	tr := mustParse(t, sample)
	rp, err := NewReplay(tr, 4, InterpLinear)
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-order and repeated queries must agree with in-order ones:
	// the replay holds no cursor.
	first := append([]float64(nil), rp.Multipliers(5, nil)...)
	rp.Multipliers(9, nil)
	rp.Multipliers(0, nil)
	again := rp.Multipliers(5, nil)
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("node %d: round-5 multiplier changed between queries: %v then %v", i, first[i], again[i])
		}
	}
}

func TestReplayRejects(t *testing.T) {
	tr := mustParse(t, sample)
	if _, err := NewReplay(tr, 2, InterpHold); err == nil || !strings.Contains(err.Error(), "node 2") {
		t.Fatalf("fleet smaller than trace: err = %v", err)
	}
	// Both traced nodes of a 2-node fleet offline at once → under the
	// 2-active floor.
	dead := mustParse(t, "round,node,bw,event\n1,0,,leave\n1,1,,leave\n")
	if _, err := NewReplay(dead, 2, InterpHold); err == nil || !strings.Contains(err.Error(), "active") {
		t.Fatalf("under-2-active trace: err = %v", err)
	}
	// The same events over a larger fleet are fine.
	if _, err := NewReplay(dead, 4, InterpHold); err != nil {
		t.Fatalf("4-node fleet with 2 absences: %v", err)
	}
}

func TestParseInterp(t *testing.T) {
	for name, want := range map[string]Interp{"": InterpHold, "hold": InterpHold, "linear": InterpLinear} {
		got, err := ParseInterp(name)
		if err != nil || got != want {
			t.Errorf("ParseInterp(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseInterp("cubic"); err == nil {
		t.Error("ParseInterp(cubic) accepted")
	}
}

// TestParseRejects enumerates the parser's validation errors: every
// malformed input names its line and the reason, and none of them panic.
func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, data, want string
	}{
		{"empty", "", "missing"},
		{"comment only", "# nothing here\n", "missing"},
		{"bad header", "time,node,bw,event\n0,0,1.0,\n", "header"},
		{"header only", "round,node,bw,event\n", "no data rows"},
		{"too few fields", "round,node,bw,event\n0,0,1.0\n", "3 fields"},
		{"too many fields", "round,node,bw,event\n0,0,1.0,,x\n", "5 fields"},
		{"bad round", "round,node,bw,event\nzero,0,1.0,\n", "round"},
		{"negative round", "round,node,bw,event\n-1,0,1.0,\n", "round"},
		{"bad node", "round,node,bw,event\n0,first,1.0,\n", "node"},
		{"negative node", "round,node,bw,event\n0,-2,1.0,\n", "node"},
		{"empty row", "round,node,bw,event\n0,0,,\n", "neither"},
		{"bad bw", "round,node,bw,event\n0,0,fast,\n", "not a number"},
		{"NaN bw", "round,node,bw,event\n0,0,NaN,\n", "positive and finite"},
		{"Inf bw", "round,node,bw,event\n0,0,+Inf,\n", "positive and finite"},
		{"negative bw", "round,node,bw,event\n0,0,-0.5,\n", "positive and finite"},
		{"zero bw", "round,node,bw,event\n0,0,0,\n", "positive and finite"},
		{"unknown event", "round,node,bw,event\n0,0,,crash\n", "unknown event"},
		{"out of order", "round,node,bw,event\n5,0,1.0,\n3,0,0.5,\n", "out of order"},
		{"duplicate round", "round,node,bw,event\n5,0,1.0,\n5,0,0.5,\n", "out of order"},
		{"double leave", "round,node,bw,event\n1,0,,leave\n2,0,,leave\n", "already absent"},
		{"join first", "round,node,bw,event\n1,0,,join\n", "never left"},
		{"truncated row", "round,node,bw,event\n0,0,1.0,\n1,0", "fields"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.data))
			if err == nil {
				t.Fatalf("accepted %q", c.data)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// FuzzParse hammers the parser with mutated inputs: any outcome is fine as
// long as it never panics, and accepted traces must satisfy the invariants
// Replay relies on (consistent MaxNode/MaxRound, queryable at any round).
func FuzzParse(f *testing.F) {
	f.Add([]byte(sample))
	f.Add([]byte("round,node,bw,event\n0,0,1.0,\n"))
	f.Add([]byte("round,node,bw,event\n2,1,,leave\n5,1,,join\n"))
	f.Add([]byte("round,node,bw,event\n0,0,NaN,\n"))
	f.Add([]byte("round,node,bw,event\n5,0,1.0,\n3,0,0.5,\n"))
	f.Add([]byte("round,node,bw,event\n0,0,1e308,\n1,0,1e-308,\n"))
	f.Add([]byte(""))
	f.Add([]byte("round,node,bw,event\n0,9223372036854775807,1.5,\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Parse(data)
		if err != nil {
			return
		}
		if tr.MaxNode < 0 || tr.MaxRound < 0 {
			t.Fatalf("accepted trace with MaxNode=%d MaxRound=%d", tr.MaxNode, tr.MaxRound)
		}
		// A fleet just large enough, unless the ids are too large to run.
		n := min(tr.MaxNode, 1<<12) + 1
		rp, err := NewReplay(tr, n, InterpLinear)
		if tr.MaxNode >= n {
			if err == nil {
				t.Fatalf("node %d accepted into a fleet of %d", tr.MaxNode, n)
			}
			return
		}
		if err != nil {
			return // valid trace, but its events dip below the active floor
		}
		for _, round := range []int{0, tr.MaxRound / 2, tr.MaxRound, tr.MaxRound + 7} {
			mult := rp.Multipliers(round, nil)
			for i, m := range mult {
				if !(m > 0) {
					t.Fatalf("round %d node %d multiplier %v from accepted trace", round, i, m)
				}
			}
			rp.Active(round, nil)
		}
	})
}
