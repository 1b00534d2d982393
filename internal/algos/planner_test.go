package algos

import (
	"reflect"
	"strings"
	"testing"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
)

// plannerMembership is a fault schedule over six workers whose mortality
// draws make every membership step visible in Scheduled.
func plannerMembership() Membership {
	sched := validSchedule()
	sched.Mortality = &FaultMortality{Prob: 0.2, MinAlive: 4}
	return Membership{Faults: &sched}
}

// plannerFixture is a six-worker saps recipe under plannerMembership: a
// planner, and the constructor for more like it.
func plannerFixture(t *testing.T) (FleetConfig, *RoundPlanner, func() *RoundPlanner) {
	t.Helper()
	const n, rounds = 6, 8
	fc, bw, _ := testSetup(t, n)
	cfg := sapsConfig(n)
	m := plannerMembership()
	r := fc.recipe(Recipe{Algo: "saps", Compression: cfg.Compression, LocalSteps: cfg.LocalSteps})
	build := func() *RoundPlanner {
		p, err := NewRoundPlanner(r, bw, cfg.Gossip, m, rounds)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return fc, build(), build
}

// reference is the definition the planner must reproduce: a bare Algorithm 3
// coordinator planning each round over the membership stream's set ANDed
// with the ranks still live, the stream stepped once per round.
type reference struct {
	coord  *core.Coordinator
	stream *MembershipStream
	member []bool
}

func newReference(t *testing.T, p *RoundPlanner) *reference {
	t.Helper()
	stream, err := plannerMembership().Stream(p.recipe.Workers, p.recipe.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return &reference{coord: p.recipe.coordinator(p.bw, sapsConfig(p.recipe.Workers).Gossip), stream: stream}
}

func (ref *reference) step(t *testing.T, round int) {
	t.Helper()
	member, err := ref.stream.Step(round)
	if err != nil {
		t.Fatal(err)
	}
	ref.member = append([]bool(nil), member...)
}

func (ref *reference) plan(round int, lost ...int) core.RoundPlan {
	active := append([]bool(nil), ref.member...)
	for _, r := range lost {
		active[r] = false
	}
	return ref.coord.PlanActive(round, active)
}

// TestRoundPlannerReplansWithoutRestepping: Plan(t) again after Exclude(r)
// re-plans round t without r and without stepping the membership, and
// Plan(t+1) steps it exactly once — the fault schedule's Scheduled stays in
// lockstep with a stream stepped once per round.
func TestRoundPlannerReplansWithoutRestepping(t *testing.T) {
	_, p, _ := plannerFixture(t)
	ref := newReference(t, p)
	const cut = 2
	lost := -1
	for round := 0; round < 8; round++ {
		ref.step(t, round)
		var gone []int
		if lost >= 0 {
			gone = []int{lost}
		}
		if got, want := p.Plan(round), ref.plan(round, gone...); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: plan %+v, want %+v", round, got, want)
		}
		if !reflect.DeepEqual(p.Scheduled(), ref.stream.Scheduled()) {
			t.Fatalf("round %d: scheduled %v, want %v (membership stepped more than once a round)", round, p.Scheduled(), ref.stream.Scheduled())
		}
		if round != cut {
			continue
		}
		for r, on := range ref.member {
			if on {
				lost = r
				break
			}
		}
		p.Exclude(lost)
		if err := p.Ready(); err != nil {
			t.Fatal(err)
		}
		again := p.Plan(round)
		if again.Active[lost] || again.Peer[lost] != -1 {
			t.Fatalf("re-planned round %d still plans excluded rank %d: %+v", round, lost, again)
		}
		if want := ref.plan(round, lost); !reflect.DeepEqual(again, want) {
			t.Fatalf("re-planned round %d: %+v, want %+v", round, again, want)
		}
		if !reflect.DeepEqual(p.Scheduled(), ref.stream.Scheduled()) {
			t.Fatalf("re-planning round %d stepped the membership", round)
		}
	}
}

// TestRoundPlannerRefusals: a recipe that cannot re-plan refuses the first
// loss, and an adaptive one refuses when fewer than two workers remain —
// through Ready, and as a panic from a Plan that was not asked first.
func TestRoundPlannerRefusals(t *testing.T) {
	fc, _, _ := testSetup(t, 3)
	recipe := func(algo string) Recipe {
		return fc.recipe(Recipe{Algo: algo, Compression: 4})
	}
	psgd, err := NewRoundPlanner(recipe("psgd"), nil, sapsConfig(3).Gossip, Membership{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	psgd.Plan(0)
	psgd.Exclude(1)
	refused(t, psgd, `algorithm "psgd" cannot re-plan over a partial fleet`)
	psgd.Readmit(1)
	if err := psgd.Ready(); err != nil {
		t.Fatalf("readmitted fleet refused: %v", err)
	}

	_, bw, _ := testSetup(t, 3)
	saps, err := NewRoundPlanner(recipe("saps"), bw, sapsConfig(3).Gossip, Membership{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	saps.Plan(0)
	saps.Exclude(0)
	if err := saps.Ready(); err != nil {
		t.Fatalf("two of three workers refused: %v", err)
	}
	saps.Exclude(2)
	refused(t, saps, "only 1 effective workers remain")
}

func refused(t *testing.T, p *RoundPlanner, want string) {
	t.Helper()
	if err := p.Ready(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Ready() = %v, want %q", err, want)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(error).Error(), want) {
			t.Fatalf("Plan panicked with %v, want %q", r, want)
		}
	}()
	p.Plan(1)
}

// TestRoundPlannerMatchesInProcessFleet: with no losses, a planner driven
// the way the TCP coordinator drives it (Begin, Scheduled, Ready, then Plan)
// plans exactly the rounds the in-process fleet ran, and both equal the
// bare coordinator over the membership stream.
func TestRoundPlannerMatchesInProcessFleet(t *testing.T) {
	fc, inProc, build := plannerFixture(t)
	alg := New(fc, inProc)
	defer alg.Close()
	tcp := build()
	ref := newReference(t, tcp)
	led := &engine.CountingLedger{}
	for round := 0; round < 8; round++ {
		stats, err := alg.step(round, led)
		if err != nil {
			t.Fatal(err)
		}
		if err := tcp.Begin(round); err != nil {
			t.Fatal(err)
		}
		if err := tcp.Ready(); err != nil {
			t.Fatal(err)
		}
		got := tcp.Plan(round)
		if !reflect.DeepEqual(got, stats.Plan) {
			t.Fatalf("round %d: planned %+v, the in-process fleet ran %+v", round, got, stats.Plan)
		}
		ref.step(t, round)
		if want := ref.plan(round); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: planned %+v, the bare coordinator %+v", round, got, want)
		}
	}
}
