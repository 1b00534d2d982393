// Allocation regression tests for the hot path: every codec's steady-state
// Encode and Decode(Into), and the sharded runtime's full round loop, must
// perform zero heap allocations once their pooled buffers are warm. These
// are hard gates — a refactor that reintroduces a per-round allocation fails
// here before it shows up as a throughput regression.
package engine_test

import (
	"testing"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/obs"
)

// fillDeterministic gives the codecs a non-trivial input (distinct
// magnitudes so top-k selection and quantization do real work).
func fillDeterministic(x []float64, seed uint64) {
	s := seed*2654435761 + 1
	for i := range x {
		s = s*6364136223846793005 + 1442695040888963407
		x[i] = float64(int64(s>>33)) / float64(1<<31)
	}
}

// TestCodecZeroAlloc locks in the zero-allocation steady state of every
// codec's Encode and, where DecodeInto exists, its decode path. The round
// context is held fixed so the masked codec's payload population count (a
// per-round Bernoulli draw, inherently variable-size) stays put too.
func TestCodecZeroAlloc(t *testing.T) {
	const dim = 512
	vec := make([]float64, dim)
	fillDeterministic(vec, 5)
	ctx := engine.RoundContext{Round: 3, Seed: 99, Self: 0, N: 2}

	cases := []struct {
		name  string
		codec engine.Codec
	}{
		{"dense", engine.Dense{}},
		{"masked", engine.NewMasked(50)},
		{"topk", engine.NewTopK(16, dim, true)},
		{"randomk", engine.NewRandomK(16, 7)},
		{"qsgd", engine.NewQSGDCodec(127, 7)},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/encode", func(t *testing.T) {
			// Warm the codec-owned buffers (and, for error feedback, the
			// lazily allocated residual).
			for i := 0; i < 3; i++ {
				if _, err := tc.codec.Encode(ctx, vec); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := tc.codec.Encode(ctx, vec); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state Encode allocates %.1f times per call, want 0", allocs)
			}
		})
		t.Run(tc.name+"/decode", func(t *testing.T) {
			words, err := tc.codec.Encode(ctx, vec)
			if err != nil {
				t.Fatal(err)
			}
			var allocs float64
			if d, ok := tc.codec.(engine.DecoderInto); ok {
				dst, err := d.DecodeInto(nil, ctx, words)
				if err != nil {
					t.Fatal(err)
				}
				allocs = testing.AllocsPerRun(10, func() {
					if dst, err = d.DecodeInto(dst, ctx, words); err != nil {
						t.Fatal(err)
					}
				})
			} else {
				// Identity codecs return the received words; no warmup to do.
				allocs = testing.AllocsPerRun(10, func() {
					if _, err := tc.codec.Decode(ctx, words); err != nil {
						t.Fatal(err)
					}
				})
			}
			if allocs != 0 {
				t.Errorf("steady-state decode allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}

// TestShardedRoundZeroAllocWithObs re-runs the round-loop allocation gate
// with the observability sink enabled: the instrumented hot path (round
// and phase timers, codec latency histograms, rendezvous-wait tracking,
// byte counters) must stay allocation-free too — atomics and clock reads
// only.
func TestShardedRoundZeroAllocWithObs(t *testing.T) {
	obs.Enable(obs.New())
	defer obs.Enable(nil)
	shardedRoundAllocs(t)
	m := obs.Current()
	if m.Engine.RoundSeconds.Count() == 0 || m.Engine.CodecEncodeSeconds.Count() == 0 {
		t.Fatal("instrumented run recorded no timings — the obs-enabled gate is not exercising the sink")
	}
}

// allocNode is a minimal allocation-free participant: Merge averages into
// the model, Compute shares a copy (the transport borrows payloads until the
// round barrier, so Merge must not write into the returned slice).
type allocNode struct {
	model, out []float64
}

func newAllocNode(dim int, seed uint64) *allocNode {
	n := &allocNode{model: make([]float64, dim), out: make([]float64, dim)}
	fillDeterministic(n.model, seed)
	return n
}

func (n *allocNode) Compute(engine.RoundContext) (float64, []float64, error) {
	for i := range n.model {
		n.model[i] *= 0.999
	}
	copy(n.out, n.model)
	return 0.1, n.out, nil
}

func (n *allocNode) Merge(_ engine.RoundContext, msgs []engine.PeerMsg) error {
	for _, m := range msgs {
		if len(m.Vals) != len(n.model) {
			continue
		}
		for i, v := range m.Vals {
			n.model[i] = float64(0.5*n.model[i]) + float64(0.5*v)
		}
	}
	return nil
}

// TestShardedRoundZeroAlloc drives the sharded runtime's full round loop —
// plan, phases, report aggregation, ledger charge — over every exchange
// pattern and codec family, and requires the steady state to allocate
// nothing. The masked codec is held to a bound instead: its payload length is
// a per-round Bernoulli population count, so a round may legitimately grow a
// rank's payload buffer past its previous high-water mark — but only grow
// one, never allocate one per rank.
func TestShardedRoundZeroAlloc(t *testing.T) { shardedRoundAllocs(t) }

// sparseRing is the dcd-psgd pattern over an n-ring: the node's own payload
// delivered with its neighbours', all as sparse words.
func sparseRing(n int) *engine.Neighborhood {
	adj := make([][]int, n)
	for i := range adj {
		adj[i] = []int{(i + n - 1) % n, (i + 1) % n}
	}
	p := engine.NewNeighborhood(adj, true)
	p.Sparse = true
	return p
}

// discardLedger takes the round's charges and keeps nothing, so the gate
// measures the round loop and not a ledger's per-round series.
type discardLedger struct{}

func (discardLedger) Exchange(i, j int, sendBytes, recvBytes int64) {}
func (discardLedger) EndRound() float64                             { return 0 }

func shardedRoundAllocs(t *testing.T) {
	const (
		n   = 16
		dim = 256
	)
	peers := make([]int, n)
	for i := range peers {
		peers[i] = i ^ 1
	}
	dense := func(int) engine.Codec { return engine.Dense{} }

	for _, tc := range []struct {
		name    string
		nodes   int
		pattern engine.Pattern
		codec   func(rank int) engine.Codec
		shards  []int
		max     float64 // steady-state allocations per round
	}{
		{"pairwise/dense", n, engine.Pairwise{}, dense, []int{1, 2}, 0},
		{"pairwise/topk", n, engine.Pairwise{}, func(int) engine.Codec { return engine.NewTopK(8, dim, true) }, []int{1, 2}, 0},
		{"pairwise/qsgd", n, engine.Pairwise{}, func(rank int) engine.Codec { return engine.NewQSGDCodec(127, uint64(rank)+1) }, []int{1, 2}, 0},
		{"pairwise/masked", n, engine.Pairwise{}, func(int) engine.Codec { return engine.NewMasked(10) }, []int{1, 2}, n - 1},
		{"hub/dense", n + 1, engine.Hub{Server: n}, dense, []int{2}, 0},
		{"hub/randomk", n + 1, engine.Hub{Server: n}, func(rank int) engine.Codec { return engine.NewRandomK(8, uint64(rank)+1) }, []int{1, 2}, 0},
		// The s-fedavg uplink: sparse words straight to the server's Merge.
		{"hub/randomk-sparse", n + 1, engine.Hub{Server: n, Sparse: true}, func(rank int) engine.Codec { return engine.NewRandomK(8, uint64(rank)+1) }, []int{1, 2}, 0},
		{"collective/dense", n, engine.Collective{}, dense, []int{2}, 0},
		// The non-power-of-two fallback: the all-gather's shared sum.
		{"collective/dense-n6", 6, engine.Collective{}, dense, []int{1, 2}, 0},
		{"all-gather/topk", n, engine.AllGather{Sparse: true}, func(int) engine.Codec { return engine.NewTopK(8, dim, true) }, []int{1, 2}, 0},
		{"all-gather/qsgd", n, engine.AllGather{Levels: 127}, func(rank int) engine.Codec { return engine.NewQSGDCodec(127, uint64(rank)+1) }, []int{1, 2}, 0},
		// The dcd-psgd shape: the own payload delivered too, sparse words undecoded.
		{"neighborhood/topk", n, sparseRing(n), func(int) engine.Codec { return engine.NewTopK(8, dim, false) }, []int{1, 2}, 0},
	} {
		for _, shards := range tc.shards {
			t.Run(tc.name+"/shards="+string(rune('0'+shards)), func(t *testing.T) {
				planner := engine.PlannerFunc(func(tt int) core.RoundPlan {
					plan := core.RoundPlan{Round: tt, Seed: (uint64(tt) + 1) * 0x9e3779b97f4a7c15}
					if _, ok := tc.pattern.(engine.Pairwise); ok {
						plan.Peer = peers
					}
					return plan
				})
				nodes := make([]engine.Node, tc.nodes)
				codecs := make([]engine.Codec, tc.nodes)
				for r := range nodes {
					nodes[r] = newAllocNode(dim, uint64(r))
					codecs[r] = tc.codec(r)
				}
				eng := engine.New(engine.Options{Nodes: nodes, Codecs: codecs, Pattern: tc.pattern, Planner: planner, Shards: shards})
				defer eng.Close()
				var led discardLedger

				round := 0
				step := func() {
					if _, err := eng.Step(round, led); err != nil {
						t.Fatal(err)
					}
					round++
				}
				for i := 0; i < 5; i++ {
					step() // warm the phase states, codecs, and aggregator
				}
				allocs := testing.AllocsPerRun(10, step)
				if allocs > tc.max {
					t.Errorf("steady-state sharded round allocates %.1f times per round, want at most %.0f", allocs, tc.max)
				}
			})
		}
	}
}
