package netsim

import (
	"testing"

	"sapspsgd/internal/rng"
)

// bothTopologies runs fn over a complete and a degree-limited base: the
// clock is one loop over one storage, and must not care which it is given.
func bothTopologies(t *testing.T, fn func(t *testing.T, base *Bandwidth)) {
	t.Run("complete", func(t *testing.T) { fn(t, RandomUniform(8, 2, 4, rng.New(1))) })
	t.Run("degree4", func(t *testing.T) { fn(t, SparseRandomUniform(30, 4, 1, 4, rng.New(7))) })
}

// testMults is a round-varying multiplier callback in Replay.Multipliers'
// shape: it writes into dst's storage when that has the right length.
func testMults(n int) func(round int, dst []float64) []float64 {
	return func(round int, dst []float64) []float64 {
		if len(dst) != n {
			dst = make([]float64, n)
		}
		for i := range dst {
			dst[i] = 0.25 + float64((7*i+3*round)%11)/8
		}
		return dst
	}
}

// TestDynamicBandwidthJitterBounds pins the jitter envelope: every round
// every link stays within ±jitter of its base speed (draws never compound),
// symmetric, on the one snapshot pointer, over the base's own topology.
func TestDynamicBandwidthJitterBounds(t *testing.T) {
	bothTopologies(t, func(t *testing.T, base *Bandwidth) {
		env := NewRoundEnv(base, 0.3, 5, nil)
		cur := env.Current()
		if cur == base {
			t.Fatal("a jittered clock must not write into its base")
		}
		if &cur.nbr[0] != &base.nbr[0] || &cur.off[0] != &base.off[0] {
			t.Fatal("snapshot does not share the base topology")
		}
		for r := 0; r < 20; r++ {
			env.Tick(r)
			if env.Current() != cur {
				t.Fatalf("round %d: Current moved", r)
			}
			for i := 0; i < base.N; i++ {
				for j := 0; j < base.N; j++ {
					b, c := base.MBps(i, j), cur.MBps(i, j)
					if b == 0 {
						if c != 0 {
							t.Fatalf("round %d: pair (%d,%d) without a link reads %v", r, i, j, c)
						}
						continue
					}
					if ratio := c / b; ratio < 0.7-1e-9 || ratio > 1.3+1e-9 {
						t.Fatalf("round %d link (%d,%d): jitter ratio %v out of [0.7, 1.3]", r, i, j, ratio)
					}
					if c != cur.MBps(j, i) {
						t.Fatalf("round %d link (%d,%d) asymmetric after jitter", r, i, j)
					}
				}
			}
		}
	})
}

// TestDynamicBandwidthVaries: the speeds do move between rounds, and the
// base the draws scale is never written.
func TestDynamicBandwidthVaries(t *testing.T) {
	bothTopologies(t, func(t *testing.T, base *Bandwidth) {
		before := base.AppendEdges(nil, 0)
		env := NewRoundEnv(base, 0.3, 5, nil)
		e := before[0]
		a := env.Current().MBps(e.U, e.V)
		changed := false
		for r := 1; r <= 10; r++ {
			env.Tick(r)
			changed = changed || env.Current().MBps(e.U, e.V) != a
		}
		if !changed {
			t.Fatal("bandwidth never changed across ticks")
		}
		for k, got := range base.AppendEdges(nil, 0) {
			if got != before[k] {
				t.Fatalf("Tick wrote into the base: edge %d is %+v, was %+v", k, got, before[k])
			}
		}
	})
}

// TestDynamicBandwidthBadJitterPanics: a jitter outside [0, 1) could drive a
// link to zero or below.
func TestDynamicBandwidthBadJitterPanics(t *testing.T) {
	for _, jitter := range []float64{1, -0.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("jitter %v accepted", jitter)
				}
			}()
			NewRoundEnv(RandomUniform(2, 1, 2, rng.New(1)), jitter, 1, nil)
		}()
	}
}

// checkNodeScaled pins the multiplier model with no jitter: every link runs
// at exactly base · min(mult[u], mult[v]), symmetric, on a stable pointer;
// a callback returning the wrong number of multipliers panics.
func checkNodeScaled(t *testing.T, base *Bandwidth) {
	mults := testMults(base.N)
	env := NewRoundEnv(base, 0, 0, mults)
	cur := env.Current()
	for r := 0; r < 4; r++ {
		env.Tick(r)
		if env.Current() != cur {
			t.Fatalf("round %d: Current moved", r)
		}
		m := mults(r, nil)
		if cur.Links() != base.Links() {
			t.Fatalf("round %d: %d links, base has %d", r, cur.Links(), base.Links())
		}
		base.ForEachEdge(0, func(u, v int, w float64) {
			if got, want := cur.MBps(u, v), w*min(m[u], m[v]); got != want {
				t.Fatalf("round %d link %d-%d = %v, want %v", r, u, v, got, want)
			}
			if cur.MBps(u, v) != cur.MBps(v, u) {
				t.Fatalf("round %d: asymmetric scaled link %d-%d", r, u, v)
			}
		})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length multipliers accepted")
		}
	}()
	NewRoundEnv(base, 0, 0, testMults(base.N+1))
}

// TestNodeScaledDense is checkNodeScaled on a complete topology.
func TestNodeScaledDense(t *testing.T) { checkNodeScaled(t, RandomUniform(4, 1, 5, rng.New(7))) }

// TestNodeScaledSparse is checkNodeScaled on a degree-limited topology.
func TestNodeScaledSparse(t *testing.T) {
	checkNodeScaled(t, SparseRandomUniform(16, 4, 1, 5, rng.New(9)))
}

// TestNodeScaledOverDynamic pins the composition order every backend relies
// on: the multipliers scale the round's jittered speed, and switching them on
// does not move the jitter stream.
func TestNodeScaledOverDynamic(t *testing.T) {
	bothTopologies(t, func(t *testing.T, base *Bandwidth) {
		mults := testMults(base.N)
		jittered := NewRoundEnv(base, 0.3, 99, nil)
		both := NewRoundEnv(base, 0.3, 99, mults)
		for r := 0; r < 4; r++ {
			jittered.Tick(r)
			both.Tick(r)
			m := mults(r, nil)
			jittered.Current().ForEachEdge(0, func(u, v int, w float64) {
				if got, want := both.Current().MBps(u, v), w*min(m[u], m[v]); got != want {
					t.Fatalf("round %d: composed link %d-%d = %v, want %v", r, u, v, got, want)
				}
			})
		}
	})
}

// TestRoundEnvStaticIsBase: with nothing to vary, the clock costs nothing.
func TestRoundEnvStaticIsBase(t *testing.T) {
	base := FourteenCities()
	env := NewRoundEnv(base, 0, 0, nil)
	env.Tick(1)
	if env.Current() != base {
		t.Fatal("a clock with neither jitter nor multipliers must hand out its base")
	}
}

// TestRoundEnvRevisionCountsRewrites: Revision is what a planner keeping
// derived state compares, so it must move exactly when the speeds are
// rewritten: never on a static clock, by one at each Tick(r > 0) of a
// jittered or traced one, and not at all on a Tick(0), which construction
// already produced.
func TestRoundEnvRevisionCountsRewrites(t *testing.T) {
	bothTopologies(t, func(t *testing.T, base *Bandwidth) {
		for _, c := range []struct {
			name  string
			env   *RoundEnv
			delta uint64
		}{
			{"static", NewRoundEnv(base, 0, 0, nil), 0},
			{"jitter", NewRoundEnv(base, 0.3, 5, nil), 1},
			{"trace", NewRoundEnv(base, 0, 0, testMults(base.N)), 1},
		} {
			cur := c.env.Current()
			rev := cur.Revision()
			c.env.Tick(0)
			if got := cur.Revision(); got != rev {
				t.Fatalf("%s: Tick(0) moved Revision %d → %d", c.name, rev, got)
			}
			for r := 1; r <= 5; r++ {
				c.env.Tick(r)
				if got, want := cur.Revision(), rev+uint64(r)*c.delta; got != want {
					t.Fatalf("%s: Revision %d after Tick(%d), want %d", c.name, got, r, want)
				}
			}
			if base.Revision() != 0 {
				t.Fatalf("%s: the base's Revision moved to %d", c.name, base.Revision())
			}
		}
	})
}

// TestRoundEnvTickDrawsOnePerLink pins the jitter stream's shape, which
// every recorded jitter trajectory depends on: construction (round 0) and
// each Tick consume exactly Links() draws, one per link in ForEachEdge order.
func TestRoundEnvTickDrawsOnePerLink(t *testing.T) {
	bothTopologies(t, func(t *testing.T, base *Bandwidth) {
		const jitter, seed = 0.3, 42
		env := NewRoundEnv(base, jitter, seed, nil)
		stream := rng.New(seed)
		for r := 0; r < 3; r++ {
			env.Tick(r)
			base.ForEachEdge(0, func(u, v int, w float64) {
				if got, want := env.Current().MBps(u, v), w*(1+float64(jitter*(2*float64(stream.Float64())-1))); got != want {
					t.Fatalf("round %d link %d-%d = %v, want %v from the stream's next draw", r, u, v, got, want)
				}
			})
		}
	})
}

// TestRoundEnvTickZeroAlloc: advancing the clock, jitter and multipliers
// both on, allocates nothing once the multiplier buffer exists.
func TestRoundEnvTickZeroAlloc(t *testing.T) {
	bothTopologies(t, func(t *testing.T, base *Bandwidth) {
		env := NewRoundEnv(base, 0.3, 5, testMults(base.N))
		r := 0
		if allocs := testing.AllocsPerRun(20, func() { r++; env.Tick(r) }); allocs != 0 {
			t.Fatalf("Tick allocated %v times per round", allocs)
		}
	})
}
