package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/compress"
	"sapspsgd/internal/core"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/obs"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/transport"
)

// The committed specs. A spec's own seed fixes the workload's environment —
// the synthetic task and the bandwidth matrix or topology — because round
// cost, simulated time and reachable loss depend on those far more than any
// code change would move them (plan10k's round costs 0.12 s on one topology
// and 0.31 s on another); so do the model's initial weights and the choice
// of straggling ranks. The -seed argument re-derives every stream the
// program draws while it runs: minibatch order, mask seeds, matching
// tie-breaks, quantiser and random-k streams, async jitter and partner
// choice.
//
//go:embed workloads/*.json
var specFS embed.FS

// size is a pass's round budget: warm-up rounds run first and are not timed.
type size struct{ warm, timed int }

// workload is one set of inputs the benchmark runs. A pass builds the fleet
// from scratch (set-up, timed), runs a fixed number of rounds, and tears it
// down. A run is one long pass, whose round count follows from -seconds and
// the workload's nominal cost, so that equal arguments mean equal work on any
// machine and any commit; then two short replays of its first rounds, for the
// set-up median and to check that the outputs repeat.
type workload struct {
	name string
	why  string
	// warm is the untimed rounds at the start of a pass (async64 has no
	// rounds to discard).
	warm int
	// cost is the seconds one timed round took on the two-core machine the
	// workloads were sized on; it turns -seconds into a round count.
	cost float64
	// replay is the timed rounds of a replay pass; short, of a -short run.
	replay, short int
	// passes, when above one, replaces the long pass and its replays by
	// that many equal passes (async64: a shorter run is not a prefix of a
	// longer one — ranks stop initiating once their gossips are done, which
	// changes who meets whom before that — and only the whole run is timed,
	// so the median has to be over passes).
	passes int

	pass func(seed uint64, sz size, traced bool) (*passOut, error)
	// reference, when set, produces the outputs the long pass must
	// reproduce (tcp8: the same recipe run in-process).
	reference func(seed uint64, sz size, traced bool) (*passOut, error)
	// tracedCheck is an extra output check too slow for every untraced run.
	tracedCheck func() error
}

// roundRate is timed rounds over the wall seconds they took; over several
// equal passes, the median of that. (One over the median round was tried and
// is no steadier on this sandbox, whose slow spells last whole runs; and on
// plan10k, whose rounds differ by regime, it is less steady.)
func roundRate(passes ...*passOut) float64 {
	var rates []float64
	for _, p := range passes {
		rates = append(rates, ratio(float64(p.timed), p.wallS))
	}
	return percentile(rates, 0.5)
}

// sizeFor is the pass that fills the given seconds on the sizing machine.
func (w *workload) sizeFor(seconds float64) size {
	return size{w.warm, max(1, int(seconds/w.cost))}
}

var workloads = []*workload{
	{
		name: "saps512",
		why:  "512-node SAPS at 2 shards: nn compute and the serial planner share the round; codecs and ledger must stay a rounding error",
		warm: 2, cost: 0.24, replay: 2, short: 2,
		pass: func(seed uint64, sz size, traced bool) (*passOut, error) {
			return syncPass(loadSpec("saps512"), []algoKnobs{{algo: "saps"}}, seed, sz, traced)
		},
	},
	{
		name: "plan10k",
		why:  "planner-only SAPS at 10000 nodes on a degree-8 sparse topology: blossom augmentation is ~all of it, nn and codecs do nothing",
		warm: 0, cost: 0.32, replay: 2, short: 3,
		pass: plannerPass, tracedCheck: plannerMatchesRunFull,
	},
	{
		name: "baselines32",
		why:  "the paper's 32-worker comparison, eight algorithms back to back: every exchange pattern and every codec, no planner",
		warm: 1, cost: 1.35, replay: 1, short: 1,
		pass: func(seed uint64, sz size, traced bool) (*passOut, error) {
			return syncPass(loadSpec("baselines32"), baselineAlgos, seed, sz, traced)
		},
	},
	{
		name: "tcp8",
		why:  "coordinator + 8 workers over loopback TCP in a closed loop: gob framing, control messages and sockets are over half of a round",
		warm: 2, cost: 0.03, replay: 8, short: 6, // a TCP round, plus the same round in the in-process reference
		pass: tcpPass, reference: tcpReference,
	},
	{
		name: "async64",
		why:  "AD-PSGD on the event-driven engine, 64 ranks with a quarter 8x slow: no planner and no barrier, the event queue drives the same nodes and codecs",
		warm: 0, cost: 0.0095, short: 10, passes: 5,
		pass: asyncPass,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// algoKnobs are the per-algorithm settings of the baselines32 comparison,
// laid over the one committed base spec.
type algoKnobs struct {
	algo       string
	c          float64
	levels     int
	fraction   float64
	localSteps int
}

var baselineAlgos = []algoKnobs{
	{algo: "psgd"},
	{algo: "topk-psgd", c: 100},
	{algo: "qsgd-psgd", levels: 16},
	{algo: "d-psgd"},
	{algo: "dcd-psgd", c: 4},
	{algo: "ps-psgd"},
	{algo: "fedavg", fraction: 0.5, localSteps: 2},
	{algo: "s-fedavg", fraction: 0.5, localSteps: 2, c: 10},
}

func loadSpec(name string) *scenario.Spec {
	data, err := specFS.ReadFile("workloads/" + name + ".json")
	if err != nil {
		panic(err) // embedded at build time
	}
	s, err := scenario.Parse(data)
	if err != nil {
		panic(fmt.Sprintf("benchmark: committed spec %s: %v", name, err))
	}
	return s
}

// streamSeed derives the seed of the run-time streams of one workload from
// the benchmark's -seed.
func streamSeed(seed uint64, name string) uint64 {
	var h uint64
	for _, c := range []byte(name) {
		h = h*131 + uint64(c)
	}
	return rng.New(seed).Derive(h).Uint64()
}

// series is what one fleet produced, round by round.
type series struct {
	label  string
	losses []float64 // fleet-mean training loss
	bytes  []int64   // fleet-convention traffic charged: Σ endpoints' sent+received
}

// passOut is what one pass measured and produced.
type passOut struct {
	setupS float64     // building everything the first round needs
	timed  int         // rounds in the timed section
	wallS  float64     // Σ wall seconds of those rounds
	walls  [][]float64 // wall seconds of each timed round, fleet by fleet (async64: none)

	attempted, failed int

	// The program's outputs, which must not depend on timing, tracing or
	// how often the pass is repeated.
	fleets []series  // one per fleet the pass ran, in order
	bytes  int64     // Σ fleets, all rounds
	simS   float64   // the bandwidth model's time, Σ fleets
	rounds int       // rounds behind bytes and simS
	params []float64 // tcp8: the collected model

	firstLoss, finalLoss float64
	problems             []string // failed output checks

	// Traced passes only.
	layers  map[string]float64
	tracers []*tracer
}

func (p *passOut) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameOutputs reports whether two passes of equal length produced
// bit-identical outputs.
func (p *passOut) sameOutputs(q *passOut) bool {
	if math.Float64bits(p.simS) != math.Float64bits(q.simS) || len(p.fleets) != len(q.fleets) {
		return false
	}
	for i, f := range p.fleets {
		if !sameFloats(f.losses, q.fleets[i].losses) || !slices.Equal(f.bytes, q.fleets[i].bytes) {
			return false
		}
	}
	return true
}

// prefixOf reports whether a shorter pass produced, bit for bit, the first
// rounds of a longer one. A fleet without losses of its own (tcp8, whose
// coordinator never reports them) is compared on bytes alone.
func (p *passOut) prefixOf(long *passOut) bool {
	if len(p.fleets) != len(long.fleets) {
		return false
	}
	for i, f := range p.fleets {
		g := long.fleets[i]
		if len(f.bytes) > len(g.bytes) || !slices.Equal(f.bytes, g.bytes[:len(f.bytes)]) {
			return false
		}
		if f.losses != nil && g.losses != nil && (len(f.losses) > len(g.losses) || !sameFloats(f.losses, g.losses[:len(f.losses)])) {
			return false
		}
	}
	return true
}

// safely runs one step of the program, turning a panic into a failed round.
func safely(step func() (float64, error)) (loss float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return step()
}

func fleetBytes(led *netsim.Ledger, trainers int) int64 {
	var total int64
	for w := 0; w < trainers; w++ {
		s, r := led.WorkerBytes(w)
		total += s + r
	}
	return total + led.ServerBytes()
}

// finishLosses summarises the loss trajectory, the mean over fleets round by
// round. The final loss is the mean over the last quarter of the rounds: one
// round of a small fleet is 64 samples, and its loss alone moves by a
// quarter from one seed to the next.
func (p *passOut) finishLosses(firstTimed int) {
	var mean []float64
	for _, f := range p.fleets {
		for r, l := range f.losses {
			if r == len(mean) {
				mean = append(mean, 0)
			}
			mean[r] += l / float64(len(p.fleets))
		}
	}
	if len(mean) == 0 {
		return
	}
	p.firstLoss = mean[min(firstTimed, len(mean)-1)]
	tail := mean[len(mean)-max(1, len(mean)/4):]
	p.finalLoss = 0
	for _, l := range tail {
		p.finalLoss += l / float64(len(tail))
	}
	if math.IsNaN(p.finalLoss) || math.IsInf(p.finalLoss, 0) {
		p.fail("final loss %v is not finite", p.finalLoss)
	}
}

// ---------------------------------------------------------------------------
// Synchronous fleets: saps512 and baselines32

// taskData is the synthetic task of a spec, generated from the spec's own
// seed and split IID.
type taskData struct {
	dim, classes int
	shards       []*dataset.Dataset
	genS, partS  float64
}

func buildTask(spec *scenario.Spec) taskData {
	t0 := time.Now()
	tr, _ := dataset.TinyTask(spec.Data.Samples, spec.Data.Classes, spec.Seed)
	t1 := time.Now()
	shards := dataset.PartitionIID(tr, spec.Nodes, spec.Seed)
	return taskData{
		dim: tr.Dim(), classes: spec.Data.Classes, shards: shards,
		genS: t1.Sub(t0).Seconds(), partS: time.Since(t1).Seconds(),
	}
}

func fleetConfig(spec *scenario.Spec, task taskData, seed uint64) algos.FleetConfig {
	return algos.FleetConfig{
		N:             spec.Nodes,
		Factory:       func() *nn.Model { return nn.NewMLP(task.dim, spec.Model.Hidden, task.classes, spec.Seed) },
		Shards:        task.shards,
		LR:            spec.LR,
		Batch:         spec.Batch,
		Seed:          seed,
		RuntimeShards: spec.Shards,
	}
}

func specRecipe(spec *scenario.Spec, k algoKnobs, seed uint64) algos.Recipe {
	return algos.Recipe{
		Algo: k.algo, Workers: spec.Nodes, LR: spec.LR, Batch: spec.Batch, Seed: seed,
		Compression: spec.Compression, LocalSteps: max(1, spec.LocalSteps, k.localSteps),
		C: k.c, Levels: k.levels, Fraction: k.fraction,
	}
}

func gossipConfig(spec *scenario.Spec) gossip.Config {
	if spec.Gossip == nil {
		return gossip.Config{TThres: 10}
	}
	return gossip.Config{BThres: spec.Gossip.BThres, TThres: spec.Gossip.TThres}
}

// newAlgorithm builds the fleet the way the product does: the constructor
// scenario.Spec.Build would pick, with the run-time seed in place of the
// spec's.
func newAlgorithm(rec algos.Recipe, fc algos.FleetConfig, bw *netsim.Bandwidth, gcfg gossip.Config) algos.Algorithm {
	switch rec.Algo {
	case "saps":
		return algos.NewSAPS(fc, bw, core.Config{
			Workers: rec.Workers, Compression: rec.Compression, LR: rec.LR, Batch: rec.Batch,
			LocalSteps: rec.LocalSteps, Gossip: gcfg, Seed: rec.Seed,
		})
	case "psgd":
		return algos.NewPSGD(fc)
	case "topk-psgd":
		return algos.NewTopKPSGD(fc, rec.C)
	case "qsgd-psgd":
		return algos.NewQSGDPSGD(fc, rec.Levels)
	case "d-psgd":
		return algos.NewDPSGD(fc)
	case "dcd-psgd":
		return algos.NewDCDPSGD(fc, rec.C)
	case "ps-psgd":
		return algos.NewPSPSGD(fc, bw)
	case "fedavg":
		return algos.NewFedAvg(fc, bw, rec.Fraction, rec.LocalSteps)
	case "s-fedavg":
		return algos.NewSFedAvg(fc, bw, rec.Fraction, rec.LocalSteps, rec.C)
	}
	panic("benchmark: no constructor for " + rec.Algo)
}

// assemble builds the same fleet from the recipe's public parts, wrapping
// each in its timer when t is non-nil. With t nil it is the plain recipe
// assembly every TCP worker performs, which is what tcp8 is checked against.
func assemble(rec algos.Recipe, fc algos.FleetConfig, bw *netsim.Bandwidth, gcfg gossip.Config, t *tracer) (*engine.Engine, *tracedPlanner, []*nn.Model) {
	f := algos.NewFleet(fc)
	nodes := make([]engine.Node, rec.Nodes())
	for i := 0; i < f.N; i++ {
		nodes[i] = rec.NewNode(i, f.Models[i], fc.Shards[i], nil)
	}
	if s := rec.ServerRank(); s >= 0 {
		nodes[s] = rec.NewNode(s, fc.Factory(), nil, f.Models[0])
	}
	// One round mask per fleet, not one per worker, as algos.NewSAPS has it.
	masks := &compress.MaskCache{}
	for _, n := range nodes {
		if g, ok := n.(*engine.MaskedGossipNode); ok {
			g.W.ShareMasks(masks)
		}
	}
	codecs := rec.Codecs(f.Dim)
	planner := rec.Planner(bw, gcfg)
	var tp *tracedPlanner
	if t != nil {
		for i := range nodes {
			nodes[i] = wrapNode(nodes[i], t)
			codecs[i] = wrapCodec(codecs[i], t)
		}
		tp = &tracedPlanner{inner: planner, t: t, n: rec.Nodes()}
		planner = tp
	}
	return engine.New(engine.Options{
		Nodes: nodes, Codecs: codecs, Pattern: rec.Pattern(), Planner: planner, Shards: fc.RuntimeShards,
	}), tp, f.Models
}

// syncFleet is one built fleet, stepped round by round.
type syncFleet struct {
	led   *netsim.Ledger
	step  func(round int) (float64, error)
	close func()
	// Traced fleets only.
	eng  *engine.Engine
	t    *tracer
	plan *tracedPlanner
	tled *tracedLedger
}

func buildSyncFleet(rec algos.Recipe, fc algos.FleetConfig, bw *netsim.Bandwidth, gcfg gossip.Config, traced bool) *syncFleet {
	f := &syncFleet{led: netsim.NewLedger(bw)}
	if !traced {
		alg := newAlgorithm(rec, fc, bw, gcfg)
		f.step = func(round int) (float64, error) { return alg.Step(round, f.led), nil }
		f.close = alg.(interface{ Close() }).Close
		return f
	}
	f.t = newTracer(rec.Algo, rec.Nodes())
	f.eng, f.plan, _ = assemble(rec, fc, bw, gcfg, f.t)
	f.tled = &tracedLedger{inner: f.led, t: f.t, server: rec.ServerRank()}
	if rec.Hub() {
		f.tled.links = serverLinks(bw)
	}
	f.step = func(round int) (float64, error) {
		stats, err := f.eng.Step(round, f.tled)
		return stats.Loss, err
	}
	f.close = f.eng.Close
	return f
}

// syncPass runs the spec once per algorithm in algs, back to back.
func syncPass(spec *scenario.Spec, algs []algoKnobs, seed uint64, sz size, traced bool) (*passOut, error) {
	seed = streamSeed(seed, spec.Name)
	out := &passOut{}
	rounds := sz.warm + sz.timed

	t0 := time.Now()
	task := buildTask(spec)
	t1 := time.Now()
	bw := spec.Env()
	envS := time.Since(t1).Seconds()
	out.setupS = time.Since(t0).Seconds()

	var budget roundBudget
	var fleetS float64
	for _, k := range algs {
		rec := specRecipe(spec, k, seed)
		if err := rec.Validate(); err != nil {
			return nil, err
		}
		t2 := time.Now()
		f := buildSyncFleet(rec, fleetConfig(spec, task, seed), bw, gossipConfig(spec), traced)
		built := time.Since(t2).Seconds()
		fleetS += built
		out.setupS += built

		var stepErr error
		ser := series{label: k.algo}
		var walls []float64
		var charged int64
		for r := 0; r < rounds; r++ {
			out.attempted++
			if stepErr != nil { // the engine is unusable after a failed round
				out.failed++
				continue
			}
			var a0 uint64
			var s0 int64
			if traced {
				a0, s0 = heapAllocs(), f.t.now()
			}
			start := time.Now()
			loss, err := safely(func() (float64, error) { return f.step(r) })
			wall := time.Since(start).Seconds()
			if traced {
				f.t.coordSpan(kRound, r, s0)
				budget.allocs += heapAllocs() - a0
			}
			if err != nil || math.IsNaN(loss) || math.IsInf(loss, 0) {
				out.failed++
				if err == nil {
					err = fmt.Errorf("loss %v", loss)
				}
				stepErr = err
				out.fail("%s round %d: %v", k.algo, r, err)
				continue
			}
			total := fleetBytes(f.led, spec.Nodes)
			ser.losses = append(ser.losses, loss)
			ser.bytes = append(ser.bytes, total-charged)
			charged = total
			if r >= sz.warm {
				out.timed++
				out.wallS += wall
				walls = append(walls, wall)
			}
		}
		out.fleets = append(out.fleets, ser)
		out.walls = append(out.walls, walls)
		out.bytes += charged
		out.simS += f.led.TotalTime()
		out.rounds += rounds
		if !f.led.ConservationOK() {
			out.fail("%s: ledger does not conserve bytes", k.algo)
		}
		if traced {
			budget.add(f, sz.warm, max(1, spec.Shards))
			if f.plan.stats.invalid > 0 {
				out.fail("%s: %d plans are not matchings", k.algo, f.plan.stats.invalid)
			}
			if len(algs) == 1 { // eight fleets' worth of snapshots would outlast the rounds
				if err := checkpointProbe(f, rounds, &budget); err != nil {
					out.fail("%s: checkpoint: %v", k.algo, err)
				}
			}
			out.tracers = append(out.tracers, f.t)
		}
		f.close()
		if len(algs) > 1 {
			runtime.GC() // one fleet's garbage must not count against the next one's peak
		}
	}
	out.finishLosses(sz.warm)
	if traced {
		out.layers = budget.layers(out)
		out.layers["dataset.gen_s"] = task.genS
		out.layers["dataset.partition_s"] = task.partS
		out.layers["netsim.env_build_s"] = envS
		out.layers["algos.fleet_build_s"] = fleetS
	}
	return out, nil
}

// roundBudget accumulates the traced time of a pass's timed rounds, layer
// by layer, over however many fleets the pass ran.
type roundBudget struct {
	rounds    int
	secs      [kindCount]float64
	calls     [kindCount]int
	parallelS float64 // (compute+encode+decode+merge) ÷ shards, Σ fleets
	allocs    uint64  // heap objects allocated inside Step, warm-up included
	plan      planStats
	exchanges int
	extra     map[string]float64
}

// addSpans adds the spans of a tracer's timed rounds.
func (b *roundBudget) addSpans(t *tracer, warm, shards int) {
	for _, buf := range append([][]span{t.coord}, t.ranks...) {
		for _, s := range buf {
			if int(s.round) < warm {
				continue
			}
			d := float64(s.end-s.start) / 1e9
			b.secs[s.kind] += d
			b.calls[s.kind]++
			switch s.kind {
			case kCompute, kEncode, kDecode, kMerge:
				b.parallelS += d / float64(shards)
			}
		}
	}
	b.rounds = b.calls[kRound]
}

// add adds one traced fleet: its spans, what its planner saw and how many
// exchanges its ledger was charged.
func (b *roundBudget) add(f *syncFleet, warm, shards int) {
	b.addSpans(f.t, warm, shards)
	p := f.plan.stats
	b.plan.forced += p.forced
	b.plan.matched += p.matched
	b.plan.active += p.active
	b.plan.allocs += p.allocs
	b.exchanges += f.tled.exchanges
}

// layers turns the budget into the per-layer metrics of a synchronous
// workload. Serial layers (plan, ledger) are wall seconds; parallel layers
// are busy seconds summed over ranks; engine.self is the residual that makes
// the budget add up to the round's wall: everything the engine does around
// the calls it makes — dispatch, rendezvous, barrier wait, and the imbalance
// between shards.
func (b *roundBudget) layers(out *passOut) map[string]float64 {
	r := float64(max(1, b.rounds))
	all := float64(max(1, out.attempted))
	m := map[string]float64{
		"core.plan_s_per_round":        b.secs[kPlan] / r,
		"core.plan_allocs_per_round":   float64(b.plan.allocs) / all,
		"gossip.forced_rounds":         float64(b.plan.forced),
		"gossip.matched_share":         ratio(float64(b.plan.matched), float64(b.plan.active)),
		"nn.compute_s_per_round":       b.secs[kCompute] / r,
		"engine.encode_s_per_round":    b.secs[kEncode] / r,
		"engine.decode_s_per_round":    b.secs[kDecode] / r,
		"engine.merge_s_per_round":     b.secs[kMerge] / r,
		"engine.codec_calls_per_round": float64(b.calls[kEncode]+b.calls[kDecode]) / r,
		"engine.self_s_per_round":      (b.secs[kRound] - b.secs[kPlan] - b.secs[kLedger] - b.parallelS) / r,
		"engine.allocs_per_round":      float64(b.allocs-b.plan.allocs) / all,
		"netsim.ledger_s_per_round":    b.secs[kLedger] / r,
		// The netsim ledger schedules two NIC events per exchange.
		"netsim.events_per_s": ratio(2*float64(b.exchanges)*r/all, b.secs[kLedger]),
	}
	for k, v := range b.extra {
		m[k] = v
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---------------------------------------------------------------------------
// plan10k: the coordinator alone

// plannerPass replays what scenario.Spec.RunFull does for a planner_only
// spec — Algorithm 3, the shared mask's byte count, one ledger charge per
// matched pair — with the benchmark's own clock around each round and, when
// traced, around the planner and the ledger inside it.
func plannerPass(seed uint64, sz size, traced bool) (*passOut, error) {
	spec := loadSpec("plan10k")
	return plannerRun(spec, streamSeed(seed, spec.Name), sz, traced)
}

func plannerRun(spec *scenario.Spec, seed uint64, sz size, traced bool) (*passOut, error) {
	out := &passOut{}
	rounds := sz.warm + sz.timed

	t0 := time.Now()
	bw := spec.Env()
	envS := time.Since(t0).Seconds()
	coord := core.NewCoordinator(bw, core.Config{
		Workers: spec.Nodes, Compression: spec.Compression, LR: spec.LR, Batch: spec.Batch,
		LocalSteps: max(1, spec.LocalSteps), Gossip: gossipConfig(spec), Seed: seed,
	})
	dim := nn.MLPParamCount(dataset.TinyInputDim, spec.Model.Hidden, spec.Data.Classes)
	led := netsim.NewLedger(bw)
	out.setupS = time.Since(t0).Seconds()

	var t *tracer
	if traced {
		t = newTracer("saps", 0)
	}
	var stats planStats
	var budget roundBudget
	var mask []bool
	ser := series{label: "saps"}
	var walls []float64
	var charged int64
	for r := 0; r < rounds; r++ {
		out.attempted++
		start := time.Now()
		_, err := safely(func() (float64, error) {
			var a0 uint64
			var s0 int64
			if traced {
				a0, s0 = heapAllocs(), t.now()
			}
			plan := coord.PlanActive(r, nil)
			if traced {
				t.coordSpan(kPlan, r, s0)
				stats.allocs += heapAllocs() - a0
			}
			stats.observe(plan, spec.Nodes)
			mask = compress.MaskInto(mask, plan.Seed, r, dim, spec.Compression)
			payload := compress.MaskedBytes(compress.CountOnes(mask))
			var s1 int64
			if traced {
				s1 = t.now()
			}
			for v, p := range plan.Peer {
				if p > v {
					led.Exchange(v, p, payload, payload)
					budget.exchanges++
				}
			}
			led.EndRound()
			if traced {
				t.coordSpan(kLedger, r, s1)
				t.coordSpan(kRound, r, s0)
				budget.allocs += heapAllocs() - a0
			}
			return 0, nil
		})
		wall := time.Since(start).Seconds()
		if err != nil {
			out.failed++
			out.fail("round %d: %v", r, err)
			continue
		}
		total := fleetBytes(led, spec.Nodes)
		ser.bytes = append(ser.bytes, total-charged)
		charged = total
		if r >= sz.warm {
			out.timed++
			out.wallS += wall
			walls = append(walls, wall)
		}
	}
	out.fleets, out.walls = []series{ser}, [][]float64{walls}
	out.bytes = charged
	out.simS = led.TotalTime()
	out.rounds = rounds
	// The planner trains nothing, so the loss stays where an untrained
	// softmax classifier starts: ln(classes). A constant, reported so that
	// final_loss is defined on every workload.
	out.firstLoss = math.Log(float64(spec.Data.Classes))
	out.finalLoss = out.firstLoss
	if stats.invalid > 0 {
		out.fail("%d plans are not matchings", stats.invalid)
	}
	if !led.ConservationOK() {
		out.fail("ledger does not conserve bytes")
	}
	if traced {
		budget.addSpans(t, sz.warm, 1)
		budget.plan = stats
		out.layers = budget.layers(out)
		out.layers["netsim.env_build_s"] = envS
		out.tracers = []*tracer{t}
	}
	return out, nil
}

// plannerMatchesRunFull checks the replay above against the product: three
// rounds of the committed spec through Spec.RunFull must charge exactly the
// bytes and simulated seconds of three rounds of plannerRun on the spec's
// own seed.
func plannerMatchesRunFull() error {
	spec := loadSpec("plan10k")
	spec.Rounds = 3
	want, err := spec.RunFull(scenario.RunOptions{})
	if err != nil {
		return err
	}
	got, err := plannerRun(spec, spec.Seed, size{0, spec.Rounds}, false)
	if err != nil {
		return err
	}
	if got.bytes != want.Result.TotalBytes || math.Float64bits(got.simS) != math.Float64bits(want.Result.SimSeconds) {
		return fmt.Errorf("plan10k replay charged %d bytes / %v s, Spec.RunFull %d bytes / %v s",
			got.bytes, got.simS, want.Result.TotalBytes, want.Result.SimSeconds)
	}
	return nil
}

// ---------------------------------------------------------------------------
// async64: AD-PSGD on the event-driven engine

func asyncPass(seed uint64, sz size, traced bool) (*passOut, error) {
	spec := loadSpec("async64")
	return asyncRun(spec, streamSeed(seed, spec.Name), sz, traced)
}

func asyncRun(spec *scenario.Spec, seed uint64, sz size, traced bool) (*passOut, error) {
	out := &passOut{}
	a := spec.Async

	t0 := time.Now()
	task := buildTask(spec)
	t1 := time.Now()
	bw := spec.Env()
	envS := time.Since(t1).Seconds()
	t2 := time.Now()
	rec := specRecipe(spec, algoKnobs{algo: spec.Algo}, seed)
	af := algos.NewAsyncFleet(fleetConfig(spec, task, seed), rec)
	fleetS := time.Since(t2).Seconds()
	// The straggler block is part of the environment: fixed by the spec.
	slow := rng.New(spec.Seed).Derive(0xa51c).Perm(spec.Nodes)[:int(math.Ceil(a.SlowFraction*float64(spec.Nodes)))]
	var t *tracer
	if traced {
		t = newTracer(spec.Algo, spec.Nodes)
		for i := range af.Nodes {
			af.Nodes[i] = wrapAsyncNode(af.Nodes[i], i, t)
			af.Codecs[i] = wrapCodec(af.Codecs[i], t)
		}
	}
	eng, err := engine.NewAsync(engine.AsyncOptions{
		Nodes: af.Nodes, Codecs: af.Codecs, Bandwidth: bw, Seed: seed, Steps: sz.timed, OneWay: rec.OneWay(),
		Compute: engine.AsyncComputeModel{MeanSeconds: a.ComputeSeconds, Jitter: a.Jitter, SlowFactor: a.SlowFactor, SlowRanks: slow},
	})
	if err != nil {
		return nil, err
	}
	out.setupS = time.Since(t0).Seconds()

	out.attempted = sz.timed
	var s0 int64
	if traced {
		s0 = t.now()
	}
	start := time.Now()
	var res *engine.AsyncResult
	_, err = safely(func() (float64, error) {
		var err error
		res, err = eng.Run()
		return 0, err
	})
	out.wallS = time.Since(start).Seconds()
	if traced {
		t.coordSpan(kRound, 0, s0)
	}
	if err != nil {
		out.failed = out.attempted
		out.fail("async run: %v", err)
		return out, nil
	}
	out.timed = sz.timed
	ser := series{label: spec.Algo}
	var charged int64
	for _, smp := range res.Samples {
		ser.losses = append(ser.losses, smp.MeanLoss)
		ser.bytes = append(ser.bytes, smp.CumBytes-charged)
		charged = smp.CumBytes
		if math.IsNaN(smp.MeanLoss) || math.IsInf(smp.MeanLoss, 0) {
			out.failed = out.attempted
		}
	}
	out.fleets = []series{ser}
	out.bytes = res.TotalBytes
	out.simS = res.FinalTime
	out.rounds = sz.timed
	out.finishLosses(0)
	var sent, recv int64
	for r := range res.SentBytes {
		sent += res.SentBytes[r]
		recv += res.RecvBytes[r]
	}
	if sent != recv || sent+recv != res.TotalBytes {
		out.fail("async ledger does not conserve bytes: sent %d, received %d, total %d", sent, recv, res.TotalBytes)
	}
	if traced {
		var b roundBudget
		b.addSpans(t, -1, 1) // Snapshot spans carry round -1
		steps := float64(spec.Nodes * sz.timed)
		rounds := float64(sz.timed)
		out.layers = map[string]float64{
			"nn.compute_s_per_round":       b.secs[kCompute] / rounds,
			"engine.encode_s_per_round":    b.secs[kEncode] / rounds,
			"engine.decode_s_per_round":    b.secs[kDecode] / rounds,
			"engine.merge_s_per_round":     (b.secs[kMerge] + b.secs[kSnapshot]) / rounds,
			"engine.codec_calls_per_round": float64(b.calls[kEncode]+b.calls[kDecode]) / rounds,
			"engine.async_self_s_per_step": (out.wallS - b.parallelS - b.secs[kSnapshot]) / steps,
			"netsim.events_per_s":          3 * steps / out.wallS, // compute-done, transfer-start, transfer-complete
			"dataset.gen_s":                task.genS,
			"dataset.partition_s":          task.partS,
			"netsim.env_build_s":           envS,
			"algos.fleet_build_s":          fleetS,
		}
		out.tracers = []*tracer{t}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// tcp8: the fleet over loopback TCP

const tcpWorkers = 8

type tcpEnv struct {
	task  transport.TaskSpec
	bw    *netsim.Bandwidth
	gcfg  gossip.Config
	envS  float64
	warm  int
	total int
}

func loadTCP(seed uint64, sz size) tcpEnv {
	data, err := specFS.ReadFile("workloads/tcp8.json")
	if err != nil {
		panic(err)
	}
	var task transport.TaskSpec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&task); err != nil {
		panic(fmt.Sprintf("benchmark: committed spec tcp8: %v", err))
	}
	task.Seed = streamSeed(seed, "tcp8")
	task.Rounds = sz.warm + sz.timed
	t0 := time.Now()
	bw := netsim.RandomUniform(tcpWorkers, 0.5, 5, rng.New(task.DataSeed).Derive(0xba7d))
	return tcpEnv{
		task: task, bw: bw, gcfg: gossip.Config{TThres: 4},
		envS: time.Since(t0).Seconds(), warm: sz.warm, total: task.Rounds,
	}
}

// tcpPass runs one coordinator and eight workers in this process, talking
// over real loopback sockets. The coordinator gives no signal between
// registration and the first committed round, and workers build their model
// and data after registering, inside round 0; so set-up ends at the first
// EndRound, round 1 is the warm-up, and the timed section is the stamps
// after it.
func tcpPass(seed uint64, sz size, traced bool) (*passOut, error) {
	env := loadTCP(seed, sz)
	out := &passOut{}
	var metrics *obs.Metrics
	if traced {
		metrics = obs.New()
		obs.Enable(metrics)
		defer obs.Enable(nil)
	}

	t0 := time.Now()
	nl := netsim.NewLedger(env.bw)
	led := &stampLedger{CountingLedger: engine.CountingLedger{Inner: nl}}
	var registered time.Time
	srv := &transport.CoordinatorServer{
		N: tcpWorkers, Task: env.task, BW: env.bw, Gossip: env.gcfg, Ledger: led,
		Logf: func(format string, _ ...any) {
			if strings.Contains(format, "registered") {
				registered = time.Now()
			}
		},
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make([]error, tcpWorkers)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = (&transport.WorkerClient{}).Run(addr, "127.0.0.1:0")
		}()
	}
	out.attempted = env.total
	final, err := srv.Run()
	wg.Wait() // a failed coordinator closes every connection, which ends the workers
	for i, e := range errs {
		if err == nil && e != nil {
			err = fmt.Errorf("worker %d: %w", i, e)
		}
	}
	if err != nil {
		out.failed = out.attempted
		out.fail("tcp fleet: %v", err)
		return out, nil
	}
	if len(led.stamps) != env.total {
		out.failed = out.attempted
		out.fail("coordinator committed %d rounds of %d", len(led.stamps), env.total)
		return out, nil
	}
	out.setupS = led.stamps[0].Sub(t0).Seconds()
	var walls []float64
	for r := env.warm; r < env.total; r++ {
		wall := led.stamps[r].Sub(led.stamps[r-1]).Seconds()
		walls = append(walls, wall)
		out.wallS += wall
		out.timed++
	}
	out.walls = [][]float64{walls}
	out.params = final
	out.bytes = fleetBytes(nl, tcpWorkers)
	out.simS = nl.TotalTime()
	out.rounds = env.total
	out.fleets = []series{{label: "tcp", bytes: led.RoundBytes()}}
	if !nl.ConservationOK() {
		out.fail("ledger does not conserve bytes")
	}
	if traced {
		t := newTracer("tcp", 0)
		t.epoch = t0
		t.coord = append(t.coord, span{kConnect, -1, 0, 0, int64(registered.Sub(t0))})
		prev := int64(led.stamps[0].Sub(t0))
		for r := 1; r < env.total; r++ {
			end := int64(led.stamps[r].Sub(t0))
			t.coord = append(t.coord, span{kRound, -1, int32(r), prev, end})
			prev = end
		}
		out.layers = map[string]float64{
			"transport.connect_s": registered.Sub(t0).Seconds(),
			"transport.aborts":    float64(metrics.Transport.AbortsTotal.Value()),
			"netsim.env_build_s":  env.envS,
		}
		out.tracers = []*tracer{t}
	}
	return out, nil
}

// tcpReference runs tcp8's recipe in this process with no sockets: the
// assembly every TCP worker performs, over the in-memory transport. The TCP
// run must reproduce its model, per-round bytes and simulated seconds bit
// for bit; and since the coordinator never reports losses, the reference's
// are the workload's.
func tcpReference(seed uint64, sz size, traced bool) (*passOut, error) {
	env := loadTCP(seed, sz)
	out := &passOut{attempted: env.total, rounds: env.total}
	t0 := time.Now()
	shards, _ := env.task.BuildShards(tcpWorkers)
	dataS := time.Since(t0).Seconds()
	fc := algos.FleetConfig{
		N: tcpWorkers,
		Factory: func() *nn.Model {
			m, err := env.task.BuildModel()
			if err != nil {
				panic(err) // the committed spec names a known architecture
			}
			return m
		},
		Shards: shards, LR: env.task.LR, Batch: env.task.Batch, Seed: env.task.Seed,
	}
	f := &syncFleet{led: netsim.NewLedger(env.bw)}
	var inner engine.Ledger = f.led
	if traced {
		f.t = newTracer("in-process", tcpWorkers)
		f.tled = &tracedLedger{inner: f.led, t: f.t, server: -1}
		inner = f.tled
	}
	led := &engine.CountingLedger{Inner: inner}
	t1 := time.Now()
	var models []*nn.Model
	f.eng, f.plan, models = assemble(env.task.Recipe(tcpWorkers), fc, env.bw, env.gcfg, f.t)
	fleetS := time.Since(t1).Seconds()
	defer f.eng.Close()

	var budget roundBudget
	var losses, walls []float64
	for r := 0; r < env.total; r++ {
		var a0 uint64
		var s0 int64
		if traced {
			a0, s0 = heapAllocs(), f.t.now()
		}
		start := time.Now()
		stats, err := f.eng.Step(r, led)
		wall := time.Since(start).Seconds()
		if err != nil {
			return nil, fmt.Errorf("tcp8 in-process reference, round %d: %w", r, err)
		}
		if traced {
			f.t.coordSpan(kRound, r, s0)
			budget.allocs += heapAllocs() - a0
		}
		losses = append(losses, stats.Loss)
		if r >= env.warm {
			walls = append(walls, wall)
		}
	}
	out.walls = [][]float64{walls}
	out.params = models[0].FlatParams(nil)
	out.bytes = fleetBytes(f.led, tcpWorkers)
	out.simS = f.led.TotalTime()
	out.fleets = []series{{label: "tcp", losses: losses, bytes: led.RoundBytes()}}
	if traced {
		// No shards here: the engine's node pool runs GOMAXPROCS ranks at once.
		budget.add(f, env.warm, runtime.GOMAXPROCS(0))
		if err := checkpointProbe(f, env.total, &budget); err != nil {
			out.fail("in-process reference: checkpoint: %v", err)
		}
		out.layers = budget.layers(out)
		out.layers["dataset.gen_s"] = dataS
		out.layers["algos.fleet_build_s"] = fleetS
		out.tracers = []*tracer{f.t}
	}
	return out, nil
}

// matchesReference checks a TCP pass against the in-process reference of
// equal length and, when it matches, adopts the reference's loss series.
func (p *passOut) matchesReference(ref *passOut) {
	got, want := p.fleets[0].bytes, ref.fleets[0].bytes
	switch {
	case len(p.params) != len(ref.params) || len(got) != len(want):
		p.fail("tcp run collected %d params over %d rounds, in-process reference %d over %d",
			len(p.params), len(got), len(ref.params), len(want))
		return
	case math.Float64bits(p.simS) != math.Float64bits(ref.simS):
		p.fail("tcp run simulated %v s, in-process reference %v s", p.simS, ref.simS)
	case !sameFloats(p.params, ref.params):
		p.fail("tcp model differs from the in-process reference")
	case !slices.Equal(got, want):
		p.fail("tcp rounds charged %v bytes, in-process reference %v", got, want)
	}
	p.fleets[0].losses = ref.fleets[0].losses
}
