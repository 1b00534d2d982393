package engine_test

import (
	"math"
	"strings"
	"testing"

	"sapspsgd/internal/compress"
	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/engine/memtransport"
)

// vecNode is a minimal engine.Node sharing a fixed vector and recording what
// Merge delivers.
type vecNode struct {
	out    []float64
	merged []engine.PeerMsg
	order  []int // Merge call order per message (sender ranks)
}

func (n *vecNode) Compute(engine.RoundContext) (float64, []float64, error) {
	return 1.0, n.out, nil
}

func (n *vecNode) Merge(_ engine.RoundContext, msgs []engine.PeerMsg) error {
	for _, m := range msgs {
		cp := m
		cp.Vals = append([]float64(nil), m.Vals...)
		n.merged = append(n.merged, cp)
		n.order = append(n.order, m.From)
	}
	return nil
}

// copyHub makes the in-process hub honour WorkerRound's contract — a
// transport does not retain the payload after Send returns — by depositing a
// copy, as a socket would. Without it the butterfly, run one goroutine per
// rank with no barriers, rewrites chunk buffers its partner is still reading.
type copyHub struct{ *memtransport.Hub }

func (h copyHub) Send(round, self, peer int, payload []float64) error {
	return h.Hub.Send(round, self, peer, append([]float64(nil), payload...))
}

// runPattern drives n vecNodes for one round, one WorkerRound goroutine per
// rank over a copying in-process hub, and returns the nodes plus the per-rank
// reports.
func runPattern(t *testing.T, pat engine.Pattern, outs [][]float64, codecs []engine.Codec, plan core.RoundPlan) ([]*vecNode, []engine.NodeReport) {
	t.Helper()
	n := len(outs)
	nodes := make([]*vecNode, n)
	engNodes := make([]engine.Node, n)
	for i := range outs {
		nodes[i] = &vecNode{out: outs[i]}
		engNodes[i] = nodes[i]
	}
	hub := copyHub{memtransport.NewHub(n)}
	reports := make([]engine.NodeReport, n)
	errs := make(chan error, n)
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func(i int) {
			ctx := engine.RoundContext{Round: plan.Round, Seed: plan.Seed, Self: i, N: n, Plan: plan}
			rep, err := engine.WorkerRound(engNodes[i], pat, codecs, hub, new(engine.PhaseState), ctx)
			reports[i] = rep
			errs <- err
		}(i)
	}
	go func() {
		for i := 0; i < n; i++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
		close(done)
	}()
	<-done
	return nodes, reports
}

func denseCodecs(n int) []engine.Codec {
	out := make([]engine.Codec, n)
	for i := range out {
		out[i] = engine.Dense{}
	}
	return out
}

// TestCollectiveAllReduceExact: the halving/doubling butterfly must deliver
// the exact element-wise sum to every node, and each node must ship exactly
// 2·D·(n-1)/n values (the Table I ring all-reduce cost) in each direction.
func TestCollectiveAllReduceExact(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		const D = 37 // odd length exercises uneven segment splits
		outs := make([][]float64, n)
		want := make([]float64, D)
		for i := range outs {
			outs[i] = make([]float64, D)
			for j := range outs[i] {
				outs[i][j] = float64(i*1000 + j)
				want[j] += outs[i][j]
			}
		}
		nodes, reports := runPattern(t, engine.Collective{}, outs, denseCodecs(n), core.RoundPlan{Round: 0})
		for i, node := range nodes {
			if len(node.merged) != 1 || node.merged[0].From != -1 {
				t.Fatalf("n=%d node %d: merged %d messages", n, i, len(node.merged))
			}
			for j, v := range node.merged[0].Vals {
				if v != want[j] {
					t.Fatalf("n=%d node %d coord %d: %v != %v", n, i, j, v, want[j])
				}
			}
			var sent, recv int64
			for _, f := range reports[i].Flows {
				sent += f.Sent
				recv += f.Recv
			}
			if sent != recv {
				t.Fatalf("n=%d node %d: sent %d != recv %d", n, i, sent, recv)
			}
			// Exact butterfly volume: sum over steps of per-step chunk sizes.
			// With uneven splits the chunks are within ±1 value of D/2^k, so
			// check the 4-byte total against 2·D·(n-1)/n with one value of
			// slack per step.
			wantVals := 2 * float64(D) * float64(n-1) / float64(n)
			steps := 0
			for m := n; m > 1; m >>= 1 {
				steps += 2
			}
			if got := float64(float64(sent) / compress.BytesPerValue); math.Abs(got-wantVals) > float64(steps) {
				t.Fatalf("n=%d node %d: shipped %v values, ring cost is %v", n, i, got, wantVals)
			}
		}
	}
}

// scratchCodec is a dense codec whose Encode copies into one buffer it
// reuses, as every codec with its own scratch does.
type scratchCodec struct {
	engine.Dense
	buf []float64
}

func (c *scratchCodec) Encode(_ engine.RoundContext, dense []float64) ([]float64, error) {
	c.buf = append(c.buf[:0], dense...)
	return c.buf, nil
}

// TestCollectiveButterflyDeposits: on the sharded runtime, where a deposit
// is read in place, the butterfly's sum is exact with the identity codec's
// chunks deposited as views, and a codec whose words are its own scratch is
// refused with an error instead of being read after its next encode.
func TestCollectiveButterflyDeposits(t *testing.T) {
	const D = 37
	for _, n := range []int{4, 8} {
		for _, shards := range []int{1, 2} {
			for _, scratch := range []bool{false, true} {
				nodes := make([]*vecNode, n)
				engNodes := make([]engine.Node, n)
				codecs := make([]engine.Codec, n)
				want := make([]float64, D)
				for i := range nodes {
					out := make([]float64, D)
					for j := range out {
						out[j] = float64(i*1000 + j)
						want[j] += out[j]
					}
					nodes[i] = &vecNode{out: out}
					engNodes[i] = nodes[i]
					codecs[i] = engine.Dense{}
					if scratch {
						codecs[i] = &scratchCodec{}
					}
				}
				planner := engine.PlannerFunc(func(r int) core.RoundPlan { return core.RoundPlan{Round: r} })
				eng := engine.New(engine.Options{Nodes: engNodes, Codecs: codecs, Pattern: engine.Collective{}, Planner: planner, Shards: shards})
				_, err := eng.Step(0, discardLedger{})
				eng.Close()
				if scratch {
					if err == nil || !strings.Contains(err.Error(), "identity codec") {
						t.Fatalf("n=%d shards=%d: a scratch codec ran the butterfly, err %v", n, shards, err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				for i, node := range nodes {
					if len(node.merged) != 1 {
						t.Fatalf("n=%d shards=%d node %d: merged %d messages", n, shards, i, len(node.merged))
					}
					for j, v := range node.merged[0].Vals {
						if v != want[j] {
							t.Fatalf("n=%d shards=%d node %d coord %d: %v, want %v", n, shards, i, j, v, want[j])
						}
					}
				}
			}
		}
	}
}

// TestCollectiveFallbackNonPowerOfTwo: non-power-of-two fleets still get the
// exact sum (via complete all-gather).
func TestCollectiveFallbackNonPowerOfTwo(t *testing.T) {
	const n, D = 3, 11
	outs := make([][]float64, n)
	want := make([]float64, D)
	for i := range outs {
		outs[i] = make([]float64, D)
		for j := range outs[i] {
			outs[i][j] = float64(i + j)
			want[j] += outs[i][j]
		}
	}
	nodes, _ := runPattern(t, engine.Collective{}, outs, denseCodecs(n), core.RoundPlan{})
	for i, node := range nodes {
		for j, v := range node.merged[0].Vals {
			if v != want[j] {
				t.Fatalf("node %d coord %d: %v != %v", i, j, v, want[j])
			}
		}
	}
}

// TestAllGatherSumsDecodedPayloads: the all-gather delivers the sum of
// *decoded* payloads — with a lossy codec the result reflects the
// compression (these inputs sum exactly, so every node sees the same bits;
// in general each sums own-first and the last bits differ).
func TestAllGatherSumsDecodedPayloads(t *testing.T) {
	const n, D, k = 3, 10, 2
	outs := make([][]float64, n)
	for i := range outs {
		outs[i] = make([]float64, D)
		outs[i][i] = 100 // top-1 per node at a distinct coordinate
		outs[i][9] = 1   // dropped by top-k
		outs[i][i+3] = 50
	}
	codecs := make([]engine.Codec, n)
	for i := range codecs {
		codecs[i] = engine.NewTopK(k, D, false)
	}
	nodes, reports := runPattern(t, engine.AllGather{}, outs, codecs, core.RoundPlan{})
	want := make([]float64, D)
	for i := 0; i < n; i++ {
		want[i] += 100
		want[i+3] += 50
	}
	for i, node := range nodes {
		if len(node.merged) != 1 || node.merged[0].From != -1 {
			t.Fatalf("node %d: merged %d messages", i, len(node.merged))
		}
		for j, v := range node.merged[0].Vals {
			if v != want[j] {
				t.Fatalf("node %d coord %d: %v != %v (lossy sum must include own decoded payload)", i, j, v, want[j])
			}
		}
		// Measured bytes: k entries at 8 bytes to each of n-1 peers.
		var sent int64
		for _, f := range reports[i].Flows {
			sent += f.Sent
		}
		if want := int64((n - 1) * k * (compress.BytesPerValue + compress.BytesPerIndex)); sent != want {
			t.Fatalf("node %d: sent %d bytes, want %d", i, sent, want)
		}
	}
}

// hubNode exercises the hub choreography: workers must see the downlink
// before Compute (pull → train → push).
type hubNode struct {
	vecNode
	server       bool
	mergedBefore bool // worker: Merge arrived before Compute
	computed     bool
}

func (h *hubNode) Compute(ctx engine.RoundContext) (float64, []float64, error) {
	h.computed = true
	if h.server {
		return math.NaN(), h.out, nil
	}
	h.mergedBefore = len(h.merged) > 0
	return 2.5, h.out, nil
}

func (h *hubNode) Merge(ctx engine.RoundContext, msgs []engine.PeerMsg) error {
	return h.vecNode.Merge(ctx, msgs)
}

// TestHubPullTrainPush: the server's payload reaches every chosen worker
// before it computes; the server merges exactly the chosen uploads in rank
// order; unchosen workers are never invoked.
func TestHubPullTrainPush(t *testing.T) {
	const n = 4 // 3 workers + server rank 3
	pat := engine.Hub{Server: 3}
	plan := core.RoundPlan{Round: 2, Active: []bool{true, false, true, true}}
	nodes := make([]*hubNode, n)
	engNodes := make([]engine.Node, n)
	for i := range nodes {
		nodes[i] = &hubNode{vecNode: vecNode{out: []float64{float64(10 + i)}}, server: i == 3}
		engNodes[i] = nodes[i]
	}
	hub := copyHub{memtransport.NewHub(n)}
	reports := make([]engine.NodeReport, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			if plan.Active != nil && !plan.Active[i] {
				errs <- nil
				return
			}
			ctx := engine.RoundContext{Round: plan.Round, Self: i, N: n, Plan: plan}
			rep, err := engine.WorkerRound(engNodes[i], pat, denseCodecs(n), hub, new(engine.PhaseState), ctx)
			reports[i] = rep
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []int{0, 2} {
		if !nodes[w].mergedBefore {
			t.Fatalf("worker %d computed before receiving the downlink", w)
		}
		if len(nodes[w].merged) != 1 || nodes[w].merged[0].From != 3 {
			t.Fatalf("worker %d merged %v", w, nodes[w].order)
		}
		if got := nodes[w].merged[0].Vals[0]; got != 13 {
			t.Fatalf("worker %d downlink %v, want server payload 13", w, got)
		}
	}
	if nodes[1].computed {
		t.Fatal("unchosen worker 1 was computed")
	}
	if got := nodes[3].order; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("server merged from %v, want [0 2] in rank order", got)
	}
	if got := nodes[3].merged[0].Vals[0]; got != 10 {
		t.Fatalf("server upload from 0 was %v", got)
	}
	if !reports[0].Trained || reports[3].Trained {
		t.Fatalf("trained flags wrong: worker %v, server %v", reports[0].Trained, reports[3].Trained)
	}
}

// TestNeighborhoodDeliversPerSender: ring gossip delivers each neighbor's
// payload attributed to its sender, plus the node's own decoded payload when
// IncludeSelf is set.
func TestNeighborhoodDeliversPerSender(t *testing.T) {
	const n = 5
	adj := make([][]int, n)
	for i := range adj {
		adj[i] = []int{(i + n - 1) % n, (i + 1) % n}
	}
	outs := make([][]float64, n)
	for i := range outs {
		outs[i] = []float64{float64(i)}
	}
	for _, includeSelf := range []bool{false, true} {
		pat := engine.NewNeighborhood(adj, includeSelf)
		nodes, reports := runPattern(t, pat, outs, denseCodecs(n), core.RoundPlan{})
		for i, node := range nodes {
			wantMsgs := 2
			if includeSelf {
				wantMsgs = 3
			}
			if len(node.merged) != wantMsgs {
				t.Fatalf("includeSelf=%v node %d: %d messages, want %d", includeSelf, i, len(node.merged), wantMsgs)
			}
			for _, m := range node.merged {
				if got := m.Vals[0]; got != float64(m.From) {
					t.Fatalf("node %d: message from %d carries %v", i, m.From, got)
				}
			}
			var sent, recv int64
			for _, f := range reports[i].Flows {
				sent += f.Sent
				recv += f.Recv
			}
			if sent != 2*compress.BytesPerValue || recv != 2*compress.BytesPerValue {
				t.Fatalf("node %d: sent/recv %d/%d bytes, want %d both ways", i, sent, recv, 2*compress.BytesPerValue)
			}
		}
	}
}

// TestCodecRoundTrips: every codec must decode its own encoding back to the
// expected algorithm-facing vector and report the exact wire size.
func TestCodecRoundTrips(t *testing.T) {
	ctx := engine.RoundContext{Round: 3, Seed: 77}
	x := []float64{0.5, -2, 0, 4, -0.25, 3, 0, -1}

	t.Run("dense", func(t *testing.T) {
		c := engine.Dense{}
		words, _ := c.Encode(ctx, x)
		got, _ := c.Decode(ctx, words)
		for i := range x {
			if got[i] != x[i] {
				t.Fatal("dense round trip")
			}
		}
		if c.WireBytes(words) != int64(len(x)*4) {
			t.Fatalf("dense bytes %d", c.WireBytes(words))
		}
	})

	t.Run("masked", func(t *testing.T) {
		c := engine.NewMasked(2)
		words, _ := c.Encode(ctx, x)
		mask := compress.MaskIndices(nil, ctx.Seed, ctx.Round, len(x), 2)
		if len(words) != len(mask) {
			t.Fatalf("masked payload %d values, mask has %d", len(words), len(mask))
		}
		for j, i := range mask {
			if words[j] != x[i] {
				t.Fatalf("masked value %d mismatch", j)
			}
		}
		if c.WireBytes(words) != int64(len(words)*4) {
			t.Fatal("masked bytes")
		}
	})

	t.Run("topk", func(t *testing.T) {
		c := engine.NewTopK(3, len(x), false)
		words, _ := c.Encode(ctx, x)
		got, _ := c.Decode(ctx, words)
		want := []float64{0, -2, 0, 4, 0, 3, 0, 0}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("topk decode[%d] = %v, want %v", i, got[i], want[i])
			}
		}
		if c.WireBytes(words) != 3*8 {
			t.Fatalf("topk bytes %d, want 24", c.WireBytes(words))
		}
	})

	t.Run("topk-error-feedback", func(t *testing.T) {
		c := engine.NewTopK(2, len(x), true)
		if _, err := c.Encode(ctx, x); err != nil {
			t.Fatal(err)
		}
		// Round 1 transmitted 4 and 3 (indices 3, 5); the biggest dropped
		// value (-2 at index 1) must resurface when we encode zeros.
		words, _ := c.Encode(ctx, make([]float64, len(x)))
		got, _ := c.Decode(ctx, words)
		if got[1] != -2 {
			t.Fatalf("error feedback lost residual: decode[1] = %v, want -2", got[1])
		}
	})

	t.Run("qsgd", func(t *testing.T) {
		c := engine.NewQSGDCodec(4, 9)
		words, _ := c.Encode(ctx, x)
		got, _ := c.Decode(ctx, words)
		norm := 0.0
		for _, v := range x {
			norm += float64(v * v)
		}
		norm = math.Sqrt(norm)
		for i := range x {
			if math.Abs(got[i]-x[i]) > norm/4 {
				t.Fatalf("qsgd decode[%d] = %v too far from %v", i, got[i], x[i])
			}
			if x[i] == 0 && got[i] != 0 {
				t.Fatal("qsgd invented mass at a zero coordinate")
			}
		}
		if c.WireBytes(words) != compress.QuantizedWireBytes(len(x), 4) {
			t.Fatal("qsgd bytes")
		}
	})

	t.Run("randomk", func(t *testing.T) {
		c := engine.NewRandomK(3, 5)
		words, _ := c.Encode(ctx, x)
		dim, idx, vals, err := engine.SparseWords(words)
		if err != nil || dim != len(x) || len(idx) != 3 {
			t.Fatalf("randomk words: dim %d idx %d err %v", dim, len(idx), err)
		}
		for i, ix := range idx {
			if vals[i] != x[int(ix)] {
				t.Fatal("randomk value mismatch")
			}
		}
		if c.WireBytes(words) != 3*8 {
			t.Fatal("randomk bytes")
		}
	})
}
