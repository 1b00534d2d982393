package netsim

// RoundEnv is the round-boundary environment clock every executor advances
// before it plans a round: the scenario loop, and the TCP coordinator over
// its configured or measured matrix. The composition order is fixed — the
// base environment (straggler scaling baked in), then the optional jitter
// resampled from that base, then the optional per-node multipliers scaling
// the jittered links — so every backend evaluating the same description
// walks the same bandwidth sequence.
//
// Current is stable: Tick rewrites the same *Bandwidth in place, so a
// planner or ledger built over it observes each round's speeds without
// re-plumbing. With neither jitter nor multipliers it is the base itself and
// Tick does nothing.
type RoundEnv struct {
	dyn    *DynamicBandwidth
	scaler *NodeScaledBandwidth
	mults  func(round int, dst []float64) []float64
	buf    []float64
	cur    *Bandwidth
}

// NewRoundEnv builds the clock over base and produces round 0's environment.
// jitter > 0 resamples every link each round from jitterSeed (see
// DynamicBandwidth); mults, when non-nil, returns round r's per-node
// multipliers into dst's storage (see NodeScaledBandwidth; a fleet trace's
// Replay.Multipliers is one — a function, so this package need not know
// about traces).
func NewRoundEnv(base *Bandwidth, jitter float64, jitterSeed uint64, mults func(round int, dst []float64) []float64) *RoundEnv {
	e := &RoundEnv{mults: mults, cur: base}
	if jitter > 0 {
		e.dyn = NewDynamicBandwidth(e.cur, jitter, jitterSeed)
		e.cur = e.dyn.Current()
	}
	if mults != nil {
		e.scaler = NewNodeScaledBandwidth(e.cur)
		e.buf = mults(0, nil)
		e.cur = e.scaler.Apply(e.buf)
	}
	return e
}

// Current is the environment of the round last ticked to.
func (e *RoundEnv) Current() *Bandwidth { return e.cur }

// Tick advances the environment to round r; rounds must be visited in order,
// the jitter draws being sequential. Round 0 was produced at construction.
func (e *RoundEnv) Tick(r int) {
	if r == 0 {
		return
	}
	if e.dyn != nil {
		e.dyn.Tick()
	}
	if e.scaler != nil {
		e.buf = e.mults(r, e.buf)
		e.scaler.Apply(e.buf)
	}
}
