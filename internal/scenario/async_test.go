package scenario

import (
	"bytes"
	"path/filepath"
	"testing"
)

// asyncMinimal returns a valid asynchronous spec the rejection tests mutate.
func asyncMinimal() Spec {
	s := minimal()
	s.Algo = "adpsgd"
	s.Async = &AsyncSpec{ComputeSeconds: 0.01}
	return s
}

// TestAsyncSpecValidation pins the async block's coupling rules: the block
// and the asynchronous recipes come as a pair, and async runs exclude the
// synchronous-only machinery.
func TestAsyncSpecValidation(t *testing.T) {
	if s := asyncMinimal(); s.Validate() != nil {
		t.Fatalf("minimal async spec invalid: %v", s.Validate())
	}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"async block on sync algo", func(s *Spec) { s.Algo = "psgd" }},
		{"async algo without block", func(s *Spec) { s.Async = nil }},
		{"gradpush without block", func(s *Spec) { s.Algo = "gradpush"; s.Async = nil }},
		{"zero compute_seconds", func(s *Spec) { s.Async.ComputeSeconds = 0 }},
		{"jitter out of range", func(s *Spec) { s.Async.Jitter = 1 }},
		{"slow_fraction out of range", func(s *Spec) { s.Async.SlowFraction = 1.5 }},
		{"slow_fraction without factor", func(s *Spec) { s.Async.SlowFraction = 0.25 }},
		{"slow_factor below one", func(s *Spec) { s.Async.SlowFraction = 0.25; s.Async.SlowFactor = 0.5 }},
		{"negative sample_every", func(s *Spec) { s.Async.SampleEvery = -1 }},
		{"engine shards", func(s *Spec) { s.Shards = 4 }},
		{"bandwidth jitter", func(s *Spec) { s.Bandwidth.Jitter = 0.2 }},
		{"trace block", func(s *Spec) { s.Trace = &TraceSpec{File: "traces/edge.csv"} }},
		{"churn", func(s *Spec) { s.Churn = &ChurnSpec{LeaveProb: 0.1, JoinProb: 0.5, MinActive: 2} }},
		{"data.valid", func(s *Spec) { s.Data.C, s.Data.H, s.Data.W, s.Data.Valid = 1, 8, 8, 16 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := asyncMinimal()
			tc.mut(&s)
			if err := s.Validate(); err == nil {
				t.Fatal("validated")
			}
		})
	}
}

// TestAsyncScenarioRuns drives both committed async specs end to end: the
// run trains, the sample series is monotone in virtual time, and the event
// log, final models and per-rank ledgers materialize.
func TestAsyncScenarioRuns(t *testing.T) {
	for _, name := range []string{"adpsgd-async", "gradpush-async"} {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := Load(filepath.Join("testdata", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			out, err := spec.RunFull(RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			res := out.Result
			if res.Shards != 0 {
				t.Fatalf("async run reported %d shards", res.Shards)
			}
			if res.TotalBytes <= 0 || res.SimSeconds <= 0 {
				t.Fatalf("degenerate totals: %d bytes, %v sim seconds", res.TotalBytes, res.SimSeconds)
			}
			if len(out.Losses) == 0 || len(out.Losses) != len(out.CumSimSeconds) || len(out.Losses) != len(out.CumBytes) {
				t.Fatalf("ragged series: %d losses, %d times, %d bytes", len(out.Losses), len(out.CumSimSeconds), len(out.CumBytes))
			}
			for k := 1; k < len(out.CumSimSeconds); k++ {
				if out.CumSimSeconds[k] < out.CumSimSeconds[k-1] || out.CumBytes[k] < out.CumBytes[k-1] {
					t.Fatalf("series not monotone at sample %d", k)
				}
			}
			if out.Events == nil || len(out.Events.Events) == 0 {
				t.Fatal("no event log")
			}
			if len(out.Params) != spec.Nodes {
				t.Fatalf("%d parameter vectors for %d nodes", len(out.Params), spec.Nodes)
			}
			if len(out.SentBytes) != spec.Nodes || len(out.RecvBytes) != spec.Nodes {
				t.Fatal("missing per-rank ledgers")
			}
			var endpoint int64
			for r := 0; r < spec.Nodes; r++ {
				endpoint += out.SentBytes[r] + out.RecvBytes[r]
			}
			if endpoint != res.TotalBytes {
				t.Fatalf("TotalBytes %d, endpoint sum %d", res.TotalBytes, endpoint)
			}
		})
	}
}

// TestAsyncScenarioDeterministic is the scenario-level half of the
// determinism gate: two RunFull executions of the same committed spec
// produce byte-identical event logs and bitwise-identical parameters.
func TestAsyncScenarioDeterministic(t *testing.T) {
	spec, err := Load(filepath.Join("testdata", "adpsgd-async.json"))
	if err != nil {
		t.Fatal(err)
	}
	var logs [2][]byte
	var params [2][][]float64
	for rep := 0; rep < 2; rep++ {
		out, err := spec.RunFull(RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		logs[rep] = out.Events.Bytes()
		params[rep] = out.Params
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Fatal("event logs differ between identical runs")
	}
	for i := range params[0] {
		for j := range params[0][i] {
			if params[0][i][j] != params[1][i][j] {
				t.Fatalf("rank %d param %d differs bitwise", i, j)
			}
		}
	}
}
