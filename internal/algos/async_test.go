package algos

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"sapspsgd/internal/core"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
)

// asyncFixture builds a small async fleet plus its engine options.
func asyncFixture(t *testing.T, algo string, n, steps int, bw *netsim.Bandwidth, slowRanks []int, slowFactor float64) (*AsyncFleet, engine.AsyncOptions) {
	t.Helper()
	tr, _ := dataset.TinyTask(32*n, 3, 11)
	rec := Recipe{Algo: algo, Workers: n, LR: 0.05, Batch: 8, Seed: 11}
	fc := FleetConfig{
		N:       n,
		Factory: func() *nn.Model { return nn.NewMLP(tr.Dim(), []int{8}, 3, 11) },
		Shards:  dataset.PartitionIID(tr, n, 11),
		LR:      rec.LR,
		Batch:   rec.Batch,
		Seed:    rec.Seed,
	}
	af := NewAsyncFleet(fc, rec)
	opts := engine.AsyncOptions{
		Nodes:     af.Nodes,
		Codecs:    af.Codecs,
		Bandwidth: bw,
		Seed:      rec.Seed,
		Steps:     steps,
		OneWay:    rec.OneWay(),
		Compute: engine.AsyncComputeModel{
			MeanSeconds: 0.01, Jitter: 0.3, SlowFactor: slowFactor, SlowRanks: slowRanks,
		},
	}
	return af, opts
}

// runAsync builds and runs one async engine.
func runAsync(t *testing.T, opts engine.AsyncOptions) *engine.AsyncResult {
	t.Helper()
	eng, err := engine.NewAsync(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestADPSGDConverges: the rendezvous-averaging run trains — the loss series
// falls substantially, every sample is finite, and the byte totals balance.
func TestADPSGDConverges(t *testing.T) {
	const n, steps = 8, 30
	bw := netsim.RandomUniform(n, 5, 50, rng.New(3))
	_, opts := asyncFixture(t, "adpsgd", n, steps, bw, nil, 0)
	res := runAsync(t, opts)
	if res.Steps != n*steps {
		t.Fatalf("completed %d gossips, want %d", res.Steps, n*steps)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples")
	}
	first, last := res.Samples[0].MeanLoss, res.FinalLoss
	if !(last < 0.7*first) {
		t.Fatalf("loss did not fall: first sample %v, final %v", first, last)
	}
	for _, s := range res.Samples {
		if math.IsNaN(s.MeanLoss) || math.IsInf(s.MeanLoss, 0) {
			t.Fatalf("non-finite sample loss %v", s.MeanLoss)
		}
		if s.Time < 0 || s.Time > res.FinalTime {
			t.Fatalf("sample time %v outside [0, %v]", s.Time, res.FinalTime)
		}
	}
	var sent, recv int64
	for r := 0; r < n; r++ {
		sent += res.SentBytes[r]
		recv += res.RecvBytes[r]
	}
	if sent != recv {
		t.Fatalf("byte conservation: sent %d, received %d", sent, recv)
	}
	if sent+recv != res.TotalBytes {
		t.Fatalf("TotalBytes %d, endpoint sum %d", res.TotalBytes, sent+recv)
	}
}

// TestGradPushMassConservation: push-sum's invariant — with no transfer in
// flight, the rank weights sum to n and the de-biased models stay finite.
// Also a convergence smoke: gradient push trains.
func TestGradPushMassConservation(t *testing.T) {
	const n, steps = 8, 30
	bw := netsim.RandomUniform(n, 5, 50, rng.New(3))
	af, opts := asyncFixture(t, "gradpush", n, steps, bw, nil, 0)
	res := runAsync(t, opts)
	var wSum float64
	for _, node := range af.Nodes {
		snap := node.Snapshot()
		wSum += snap[len(snap)-1]
	}
	if math.Abs(wSum-float64(n)) > 1e-9 {
		t.Fatalf("push-sum weights sum to %v, want %d", wSum, n)
	}
	for i, m := range af.Models {
		for _, v := range m.FlatParams(nil) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("rank %d has non-finite parameter", i)
			}
		}
	}
	if !(res.FinalLoss < 0.8*res.Samples[0].MeanLoss) {
		t.Fatalf("gradpush loss did not fall: first %v, final %v", res.Samples[0].MeanLoss, res.FinalLoss)
	}
}

// TestAsyncDeterministic: two runs of the identical configuration produce
// byte-identical event logs, per-rank ledgers, and final model parameters.
// This is the in-process half of the CI determinism gate (which adds
// GOMAXPROCS variation on top).
func TestAsyncDeterministic(t *testing.T) {
	for _, algo := range Names(Recipe.Async) {
		t.Run(algo, func(t *testing.T) {
			type capture struct {
				log    []byte
				params [][]float64
				sent   []int64
			}
			var runs [2]capture
			for rep := 0; rep < 2; rep++ {
				bw := netsim.RandomUniform(6, 5, 50, rng.New(3))
				af, opts := asyncFixture(t, algo, 6, 10, bw, nil, 0)
				var log netsim.EventLog
				opts.Sink = &log
				res := runAsync(t, opts)
				c := capture{log: log.Bytes(), sent: res.SentBytes}
				for _, m := range af.Models {
					c.params = append(c.params, m.FlatParams(nil))
				}
				runs[rep] = c
			}
			if !bytes.Equal(runs[0].log, runs[1].log) {
				t.Fatal("event logs differ between identical runs")
			}
			for r := range runs[0].sent {
				if runs[0].sent[r] != runs[1].sent[r] {
					t.Fatalf("rank %d sent %d vs %d bytes", r, runs[0].sent[r], runs[1].sent[r])
				}
			}
			for i := range runs[0].params {
				for j := range runs[0].params[i] {
					if runs[0].params[i][j] != runs[1].params[i][j] {
						t.Fatalf("rank %d param %d differs bitwise", i, j)
					}
				}
			}
		})
	}
}

// copyADPSGDNode is adpsgdNode as it stood while a model's parameters were
// copied out of its layers and back (verbatim, but for the name): Snapshot
// copies into the Compute scratch, Merge averages in a scratch copy and
// writes it back. It is the oracle for the in-place node.
type copyADPSGDNode struct {
	t          *core.Trainer
	localSteps int
	params     []float64
	mixed      []float64
}

func (a *copyADPSGDNode) Compute(engine.RoundContext) (float64, []float64, error) {
	loss := a.t.LocalSGD(a.localSteps)
	a.params = a.t.Model.FlatParams(a.params)
	return loss, a.params, nil
}

func (a *copyADPSGDNode) Snapshot() []float64 {
	a.params = a.t.Model.FlatParams(a.params)
	return a.params
}

func (a *copyADPSGDNode) Merge(_ engine.RoundContext, msgs []engine.PeerMsg) error {
	for _, m := range msgs {
		a.mixed = a.t.Model.FlatParams(a.mixed)
		if len(m.Vals) != len(a.mixed) {
			return fmt.Errorf("algos: adpsgd rank received %d values for %d params", len(m.Vals), len(a.mixed))
		}
		for j, v := range m.Vals {
			a.mixed[j] = 0.5 * (a.mixed[j] + v)
		}
		a.t.Model.SetFlatParams(a.mixed)
	}
	return nil
}

// TestADPSGDInPlaceMatchesCopyOracle: AD-PSGD's Snapshot ships the passive
// rank's live parameters, which the initiator's Merge reads before the
// passive rank's own Merge rewrites them in place. Under a straggler block
// that also merges ranks passively while their own transfers are in flight,
// the event log and every model bit equal the copying node's.
func TestADPSGDInPlaceMatchesCopyOracle(t *testing.T) {
	const n, steps = 8, 30
	run := func(oracle bool) ([]byte, [][]float64, []netsim.Event) {
		bw := netsim.RandomUniform(n, 5, 50, rng.New(3))
		af, opts := asyncFixture(t, "adpsgd", n, steps, bw, []int{0, 1}, 8)
		if oracle {
			for i, node := range af.Nodes {
				a := node.(*adpsgdNode)
				opts.Nodes[i] = &copyADPSGDNode{t: a.t, localSteps: a.localSteps}
			}
		}
		var log netsim.EventLog
		opts.Sink = &log
		runAsync(t, opts)
		var params [][]float64
		for _, m := range af.Models {
			params = append(params, m.FlatParams(nil))
		}
		return log.Bytes(), params, log.Events
	}
	gotLog, got, events := run(false)
	wantLog, want, _ := run(true)
	if !bytes.Equal(gotLog, wantLog) {
		t.Fatal("event logs differ from the copying node's")
	}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("rank %d param %d: %v, copying node %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	// The run must hold the case a copy would have to guard: a rank merged
	// passively between its own Compute and the completion of its transfer.
	inFlight := make([]bool, n)
	passive := 0
	for _, e := range events {
		switch e.Kind {
		case netsim.EventComputeDone:
			inFlight[e.Rank] = true
		case netsim.EventTransferComplete:
			if inFlight[e.Peer] {
				passive++
			}
			inFlight[e.Rank] = false
		}
	}
	if passive == 0 {
		t.Fatal("no rank was merged passively during its own transfer; the test does not exercise the aliasing rule")
	}
}

// probedADPSGD wraps an AD-PSGD rank for TestADPSGDRendezvousInvariants and
// records, beside the node and never inside it, each call it serves: a
// Compute, or a Merge with the parameters before and after it. Each rank
// records into its own list: the driver fixes every rank's own call order,
// not an order across ranks (compute blocks run ahead of the event clock on
// worker goroutines).
type probedADPSGD struct {
	*adpsgdNode
	calls *[]probedCall
}

// probedCall is one recorded call: a Compute (from < 0), or a Merge of
// from's values.
type probedCall struct {
	from      int
	pre, post []float64
}

func (a *probedADPSGD) Compute(ctx engine.RoundContext) (float64, []float64, error) {
	*a.calls = append(*a.calls, probedCall{from: -1})
	return a.adpsgdNode.Compute(ctx)
}

func (a *probedADPSGD) Merge(ctx engine.RoundContext, msgs []engine.PeerMsg) error {
	x, _ := a.t.Model.Flat()
	c := probedCall{from: msgs[0].From, pre: slices.Clone(x)}
	err := a.adpsgdNode.Merge(ctx, msgs)
	c.post = slices.Clone(x)
	*a.calls = append(*a.calls, c)
	return err
}

// TestADPSGDRendezvousInvariants: on the in-place test's straggler shape,
// where ranks are merged passively while their own transfers are in flight,
// every rendezvous is the atomic average of Lian et al.: both endpoints
// merge the pair of states they hold at delivery, so — IEEE addition
// commutes — they end bit-identical, and their sum is the correctly rounded
// sum of the pair before the rendezvous.
func TestADPSGDRendezvousInvariants(t *testing.T) {
	const n, steps = 8, 30
	bw := netsim.RandomUniform(n, 5, 50, rng.New(3))
	af, opts := asyncFixture(t, "adpsgd", n, steps, bw, []int{0, 1}, 8)
	calls := make([][]probedCall, n)
	for i, node := range af.Nodes {
		opts.Nodes[i] = &probedADPSGD{adpsgdNode: node.(*adpsgdNode), calls: &calls[i]}
	}
	var log netsim.EventLog
	opts.Sink = &log
	runAsync(t, opts)

	// The events say what each call was.
	next := func(rank, from int) probedCall {
		t.Helper()
		if len(calls[rank]) == 0 || calls[rank][0].from != from {
			t.Fatalf("rank %d's next call is not the event's (from %d)", rank, from)
		}
		c := calls[rank][0]
		calls[rank] = calls[rank][1:]
		return c
	}
	total, apart := 0, 0
	for _, e := range log.Events {
		r, p := int(e.Rank), int(e.Peer)
		switch e.Kind {
		case netsim.EventComputeDone:
			next(r, -1)
		case netsim.EventTransferComplete:
			ini, par := next(r, p), next(p, r)
			total++
			for j := range ini.post {
				sum, before := ini.post[j]+par.post[j], ini.pre[j]+par.pre[j]
				if math.Float64bits(ini.post[j]) != math.Float64bits(par.post[j]) || math.Float64bits(sum) != math.Float64bits(before) {
					if apart++; apart == 1 {
						t.Errorf("rendezvous %d↔%d step %d: param %d ends %v on the initiator, %v on the partner, summing to %v (%v before)",
							r, p, e.Round, j, ini.post[j], par.post[j], sum, before)
					}
					break
				}
			}
		}
	}
	for r, left := range calls {
		if len(left) != 0 {
			t.Fatalf("rank %d has %d calls left after the last event", r, len(left))
		}
	}
	if apart > 0 {
		t.Fatalf("%d of %d rendezvous leave their endpoints apart", apart, total)
	}
}

// TestAsyncStragglerLocality is the honest-straggler claim: with two
// disjoint gossip pairs (0–1 and 2–3) and rank 0 slowed 50×, the 2–3 pair
// finishes its steps at fast-pair speed while rank 1 is dragged out by its
// slow partner — a slow rank delays only its rendezvous partners, never the
// fleet.
func TestAsyncStragglerLocality(t *testing.T) {
	const mb = 20.0
	matrix := [][]float64{
		{0, mb, 0, 0},
		{mb, 0, 0, 0},
		{0, 0, 0, mb},
		{0, 0, mb, 0},
	}
	bw := netsim.NewBandwidth(matrix)
	_, opts := asyncFixture(t, "adpsgd", 4, 6, bw, []int{0}, 50)
	var log netsim.EventLog
	opts.Sink = &log
	runAsync(t, opts)
	// A rank's finish time is its last transfer-complete involvement.
	finish := make([]float64, 4)
	for _, e := range log.Events {
		if e.Kind != netsim.EventTransferComplete {
			continue
		}
		finish[e.Rank] = e.Time
		finish[e.Peer] = e.Time
	}
	fast := math.Max(finish[2], finish[3])
	slow := math.Max(finish[0], finish[1])
	if !(fast*5 < slow) {
		t.Fatalf("fast pair finished at %v, slow pair at %v: straggler is not localized", fast, slow)
	}
}

// TestGradPushBoundedUnderStragglers: Gradient Push on the async64
// benchmark's shape — 64 ranks on uniform 5–50 MB/s links, a quarter of
// them 8× slow, 300 cycles each, the 64-64-10 MLP at batch 16 — keeps every
// loss sample finite, trains, conserves Σ w = n and ends with every
// push-sum weight at or above 1/2. Once the fast ranks have run their
// cycles, nothing flows back to the stragglers: with a step unscaled by w
// the run is NaN by cycle 300, and with pushes made without in-flow the
// stragglers' w ends near 2^-200.
func TestGradPushBoundedUnderStragglers(t *testing.T) {
	const n, steps, seed = 64, 300, 7
	tr, _ := dataset.TinyTask(8192, 10, seed)
	rec := Recipe{Algo: "gradpush", Workers: n, LR: 0.05, Batch: 16, Seed: seed}
	af := NewAsyncFleet(FleetConfig{
		N:       n,
		Factory: func() *nn.Model { return nn.NewMLP(tr.Dim(), []int{64}, 10, seed) },
		Shards:  dataset.PartitionIID(tr, n, seed),
		LR:      rec.LR,
		Batch:   rec.Batch,
		Seed:    seed,
	}, rec)
	res := runAsync(t, engine.AsyncOptions{
		Nodes:     af.Nodes,
		Codecs:    af.Codecs,
		Bandwidth: netsim.RandomUniform(n, 5, 50, rng.New(seed)),
		Seed:      seed,
		Steps:     steps,
		OneWay:    true,
		Compute: engine.AsyncComputeModel{
			MeanSeconds: 0.02, Jitter: 0.3, SlowFactor: 8, SlowRanks: rng.New(seed).Derive(0xa51c).Perm(n)[:n/4],
		},
	})
	for _, s := range res.Samples {
		if math.IsNaN(s.MeanLoss) || math.IsInf(s.MeanLoss, 0) {
			t.Fatalf("non-finite loss %v after %d gossips", s.MeanLoss, s.Steps)
		}
	}
	if first := res.Samples[0].MeanLoss; !(res.FinalLoss < 0.8*first) {
		t.Fatalf("loss did not fall: first sample %v, final %v", first, res.FinalLoss)
	}
	minW, wSum := math.Inf(1), 0.0
	for _, node := range af.Nodes {
		w := node.(*gradPushNode).w
		minW, wSum = min(minW, w), wSum+w
	}
	if !(minW >= 0.5) || math.Abs(wSum-n) > 1e-9 {
		t.Fatalf("push-sum weights: min %v (bound 1/2), sum %v (want %d)", minW, wSum, n)
	}
}

// massLedger is push-sum's account of Σw across a run: the weight each rank
// holds, and each push made but not yet merged — in flight, or waiting in
// its receiver's inbox — keyed by sender and step.
type massLedger struct {
	mu      sync.Mutex
	held    []float64
	pending map[[2]int]float64
	worst   float64 // the largest |Σw − n| seen
	first   string  // the first call after which |Σw − n| > 1e-12
}

// check records the ledger's deviation from n after a call; mu is held.
func (l *massLedger) check(call string, rank, step int) {
	sum := 0.0
	for _, w := range l.held {
		sum += w
	}
	for _, w := range l.pending {
		sum += w
	}
	dev := math.Abs(sum - float64(len(l.held)))
	l.worst = max(l.worst, dev)
	if dev > 1e-12 && l.first == "" {
		l.first = fmt.Sprintf("after rank %d's %s at step %d, Σw = %v", rank, call, step, sum)
	}
}

// probedGradPush wraps a Gradient Push rank and posts every Compute and
// Merge it serves to the shared ledger, beside the node and never inside it.
type probedGradPush struct {
	*gradPushNode
	rank int
	l    *massLedger
}

func (g *probedGradPush) Compute(ctx engine.RoundContext) (float64, []float64, error) {
	loss, out, err := g.gradPushNode.Compute(ctx)
	g.l.mu.Lock()
	defer g.l.mu.Unlock()
	g.l.held[g.rank] = g.w
	if len(out) > 0 {
		g.l.pending[[2]int{g.rank, ctx.Round}] = out[len(out)-1]
	}
	g.l.check("Compute", g.rank, ctx.Round)
	return loss, out, err
}

func (g *probedGradPush) Merge(ctx engine.RoundContext, msgs []engine.PeerMsg) error {
	err := g.gradPushNode.Merge(ctx, msgs)
	g.l.mu.Lock()
	defer g.l.mu.Unlock()
	g.l.held[g.rank] = g.w
	for _, m := range msgs {
		delete(g.l.pending, [2]int{m.From, ctx.Round})
	}
	g.l.check("Merge", g.rank, ctx.Round)
	return err
}

// TestGradPushMassAtEveryEvent: push-sum conserves mass at every event, not
// only at the end. On TestGradPushBoundedUnderStragglers' fleet, where the
// slow ranks' long blocks queue pushes in their inboxes, the weights held,
// in flight and waiting to be merged sum to n after every Compute and every
// Merge, and once the run ends no push is left unmerged.
func TestGradPushMassAtEveryEvent(t *testing.T) {
	af, opts := stragglerFixture("gradpush", 300)
	n := len(af.Nodes)
	l := &massLedger{held: make([]float64, n), pending: map[[2]int]float64{}}
	for i, node := range af.Nodes {
		g := node.(*gradPushNode)
		l.held[i] = g.w
		opts.Nodes[i] = &probedGradPush{gradPushNode: g, rank: i, l: l}
	}
	var log netsim.EventLog
	opts.Sink = &log
	runAsync(t, opts)
	// A rank computes from time 0 to its first EventComputeDone, then from
	// each delivery of its own push, but its last, to the next.
	computing := make([]bool, n)
	for i := range computing {
		computing[i] = true
	}
	queued := 0
	for _, e := range log.Events {
		switch e.Kind {
		case netsim.EventComputeDone:
			computing[e.Rank] = false
		case netsim.EventTransferComplete:
			if computing[e.Peer] {
				queued++
			}
			computing[e.Rank] = int(e.Round)+1 < opts.Steps
		}
	}
	t.Logf("%d pushes landed during their receiver's block; largest |Σw − n| after a call: %.3g", queued, l.worst)
	if queued == 0 {
		t.Fatal("no push landed during its receiver's block: the run does not exercise the inbox")
	}
	if l.first != "" {
		t.Fatal(l.first)
	}
	if len(l.pending) != 0 {
		t.Fatalf("%d pushes were never merged", len(l.pending))
	}
}
