package netsim

import (
	"fmt"

	"sapspsgd/internal/rng"
)

// RoundEnv is the round-boundary environment clock every executor advances
// before it plans a round: the scenario loop, and the TCP coordinator over
// its configured or measured matrix. Round r's speed of link (u, v) is
//
//	base · (1 + jitter·(2ξ−1)) · min(mult[u], mult[v])
//
// in that operation order: the base environment (straggler scaling baked
// in); the optional per-round jitter — "the bandwidth between two workers
// may also vary" — one uniform draw ξ per link per round, in ForEachEdge
// order, always from the base, never compounding; then the optional per-node
// multipliers of a fleet trace, the slower endpoint's uplink being the
// bottleneck. Every backend evaluating the same description therefore walks
// the same bandwidth sequence.
//
// Current is stable: Tick rewrites the same *Bandwidth in place (topology
// shared with the base, weights its own) and advances its Revision, so a
// planner or ledger built over it reads each round's speeds without
// re-plumbing, and one that keeps what it derived from them (the planner's
// B* list) sees from the Revision when to derive it again. Code that needs a
// round's values after the next Tick must copy them first. With neither
// jitter nor multipliers Current is the base itself, and Tick does nothing.
type RoundEnv struct {
	base, cur *Bandwidth
	jitter    float64
	rnd       *rng.Source
	mults     func(round int, dst []float64) []float64
	buf       []float64
	// twin maps each u < v entry to its v → u twin, so both halves of a
	// link are written from one computation.
	twin []int32
}

// NewRoundEnv builds the clock over base and produces round 0's environment.
// jitter, in [0, 1), is the half-width of the multiplicative noise (0.3 =
// ±30%) drawn from jitterSeed; mults, when non-nil, returns round r's
// per-node multipliers into dst's storage (a fleet trace's
// Replay.Multipliers is one — a function, so this package need not know
// about traces).
func NewRoundEnv(base *Bandwidth, jitter float64, jitterSeed uint64, mults func(round int, dst []float64) []float64) *RoundEnv {
	if jitter < 0 || jitter >= 1 {
		panic("netsim: jitter must be in [0,1)")
	}
	e := &RoundEnv{base: base, cur: base, jitter: jitter, mults: mults}
	if jitter == 0 && mults == nil {
		return e
	}
	e.rnd = rng.New(jitterSeed)
	e.cur = &Bandwidth{N: base.N, off: base.off, nbr: base.nbr, wts: make([]float64, len(base.wts))}
	e.twin = make([]int32, len(base.nbr))
	for u := 0; u < base.N; u++ {
		for k := base.lowerBound(u, u+1); k < base.off[u+1]; k++ {
			e.twin[k] = int32(base.lowerBound(int(base.nbr[k]), u))
		}
	}
	e.rewrite(0)
	return e
}

// Current is the environment of the round last ticked to.
func (e *RoundEnv) Current() *Bandwidth { return e.cur }

// Tick advances the environment to round r; rounds must be visited in order,
// the jitter draws being sequential. Round 0 was produced at construction.
func (e *RoundEnv) Tick(r int) {
	if r > 0 && e.cur != e.base {
		e.rewrite(r)
	}
}

// rewrite fills the snapshot with round r's speeds and counts the rewrite
// in its Revision.
func (e *RoundEnv) rewrite(r int) {
	b := e.base
	e.cur.rev++
	if e.mults != nil {
		e.buf = e.mults(r, e.buf)
		if len(e.buf) != b.N {
			panic(fmt.Sprintf("netsim: %d node multipliers for %d nodes", len(e.buf), b.N))
		}
	}
	for u := 0; u < b.N; u++ {
		for k := b.lowerBound(u, u+1); k < b.off[u+1]; k++ {
			w := b.wts[k]
			if e.jitter > 0 {
				w *= 1 + float64(e.jitter*(2*float64(e.rnd.Float64())-1))
			}
			if e.mults != nil {
				w *= min(e.buf[u], e.buf[b.nbr[k]])
			}
			e.cur.wts[k] = w
			e.cur.wts[e.twin[k]] = w
		}
	}
}
