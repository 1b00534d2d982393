package scenario

import (
	"testing"

	"sapspsgd/internal/algos"
)

// TestRetargetValidatesOnEverySyncAlgo: a saps base carrying every block
// only some algorithms read — Algorithm 3's thresholds, a fault schedule, a
// trace with join/leave events — plus every ratio and
// hyperparameter a baseline needs, retargets to every synchronous algorithm
// as a spec that validates. Retarget and Validate read the same recipe
// answers, so what one drops is exactly what the other refuses: the same
// spec with only its algo swapped fails wherever Retarget had something to
// drop.
func TestRetargetValidatesOnEverySyncAlgo(t *testing.T) {
	base := minimal()
	base.Algo, base.Rounds = "saps", 4
	base.Compression, base.C, base.Levels, base.Fraction = 4, 8, 4, 0.5
	base.Gossip = &GossipSpec{BThres: 1, TThres: 5}
	base.Faults = &FaultsSpec{Crashes: []CrashSpec{{Rank: 1, Round: 1, RejoinAfter: 2}}}
	base.Trace = &TraceSpec{File: "day.csv", Events: true}
	if err := base.Validate(); err != nil {
		t.Fatalf("the saps base: %v", err)
	}
	sync := algos.Names(func(r algos.Recipe) bool { return !r.Async() })
	if len(sync) < 2 {
		t.Fatalf("synchronous algorithms %v", sync)
	}
	for _, algo := range sync {
		s := base.Retarget(algo)
		if s.Algo != algo {
			t.Fatalf("Retarget(%s) runs %s", algo, s.Algo)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("retargeted to %s: %v", algo, err)
		}
		r := s.Recipe()
		kept := s.Gossip != nil && s.Faults != nil && s.Trace.Events && s.Compression == base.Compression
		if want := r.Adaptive() && r.RatioField() == "compression"; kept != want {
			t.Errorf("retargeted to %s: kept every block %v, want %v", algo, kept, want)
		}
		if s.Trace == nil || s.Trace.File != base.Trace.File {
			t.Errorf("retargeted to %s: the trace's bandwidth multipliers were dropped", algo)
		}
		swapped := base.Clone()
		swapped.Algo = algo
		if err := swapped.Validate(); (err == nil) != kept {
			t.Errorf("%s with nothing dropped: Validate returned %v, Retarget kept every block %v", algo, err, kept)
		}
	}
	if base.Gossip == nil || base.Faults == nil || !base.Trace.Events {
		t.Fatal("Retarget changed the base")
	}
}

// TestRetargetAsync: an asynchronous target keeps the async block and drops
// the trace (it runs on a static environment); a synchronous one drops the
// async block.
func TestRetargetAsync(t *testing.T) {
	base := minimal()
	base.Algo = "adpsgd"
	base.Async = &AsyncSpec{ComputeSeconds: 0.1}
	base.Trace = &TraceSpec{File: "day.csv"}
	if err := base.Validate(); err == nil {
		t.Fatal("an async spec with a trace block validated")
	}
	if s := base.Retarget("gradpush"); s.Async == nil || s.Trace != nil || s.Validate() != nil {
		t.Fatalf("retargeted to gradpush: async %v trace %v validate %v", s.Async, s.Trace, s.Validate())
	}
	if s := base.Retarget("psgd"); s.Async != nil || s.Trace == nil || s.Validate() != nil {
		t.Fatalf("retargeted to psgd: async %v trace %v validate %v", s.Async, s.Trace, s.Validate())
	}
}

// TestSetRatio: the one ratio lands on the field the recipe names, and an
// algorithm without a ratio takes none.
func TestSetRatio(t *testing.T) {
	for _, algo := range algos.AlgoNames {
		s := minimal()
		s.Algo = algo
		ok := s.SetRatio(40)
		field := s.Recipe().RatioField()
		if ok != (field != "") {
			t.Errorf("%s: SetRatio reported %v with ratio field %q", algo, ok, field)
		}
		got := map[string]float64{"compression": s.Compression, "c": s.C}
		for f, v := range got {
			if want := map[bool]float64{true: 40}[f == field]; v != want {
				t.Errorf("%s: %s = %v after SetRatio(40), want %v", algo, f, v, want)
			}
		}
	}
}
