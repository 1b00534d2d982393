package scenario

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/fleettrace"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/obs"
	"sapspsgd/internal/profiling"
	"sapspsgd/internal/rng"
)

// Env builds the spec's static bandwidth environment, including the
// straggler scaling. Every random draw derives from the spec seed, so the
// environment is part of the reproducibility capsule. When the spec sets
// bandwidth.jitter this is the *base* of the time-varying environment;
// Build puts the netsim.RoundEnv clock on top.
func (s *Spec) Env() *netsim.Bandwidth {
	var bw *netsim.Bandwidth
	switch s.Bandwidth.Kind {
	case "uniform":
		bw = netsim.RandomUniform(s.Nodes, s.Bandwidth.Lo, s.Bandwidth.Hi, rng.New(s.Seed).Derive(0xba7d))
	case "clustered":
		bw = netsim.Clustered(s.Nodes, s.Bandwidth.Clusters, s.Bandwidth.Fast, s.Bandwidth.Slow, rng.New(s.Seed).Derive(0xba7d))
	case "cities":
		bw = netsim.FourteenCities()
	case "matrix":
		bw = netsim.NewBandwidth(s.Bandwidth.Matrix)
	case "sparse-uniform":
		bw = netsim.SparseRandomUniform(s.Nodes, s.Bandwidth.Degree, s.Bandwidth.Lo, s.Bandwidth.Hi, rng.New(s.Seed).Derive(0xba7d))
	case "sparse-clustered":
		bw = netsim.SparseClustered(s.Nodes, s.Bandwidth.Clusters, s.Bandwidth.Degree, s.Bandwidth.Fast, s.Bandwidth.Slow, rng.New(s.Seed).Derive(0xba7d))
	default:
		panic("scenario: Env on unvalidated spec: " + s.Bandwidth.Kind)
	}
	if st := s.Straggler; st != nil && st.Fraction > 0 {
		k := int(math.Ceil(st.Fraction * float64(s.Nodes)))
		perm := rng.New(s.Seed).Derive(0x57a6).Perm(s.Nodes)
		bw = bw.Scaled(perm[:k], st.Slowdown)
	}
	return bw
}

// gossipConfig returns the spec's Algorithm 3 thresholds. When the spec
// omits the gossip section the defaults are BThres 0 (every link admitted)
// and TThres 10 (the repository's usual recency window); explicit values
// are validated by Spec.Validate (TThres must be ≥ 1).
func (s *Spec) gossipConfig() gossip.Config {
	if s.Gossip == nil {
		return gossip.Config{BThres: 0, TThres: 10}
	}
	return gossip.Config{BThres: s.Gossip.BThres, TThres: s.Gossip.TThres}
}

// Coordinator builds the spec's coordinator side over base, the configured
// or measured bandwidth matrix: the round-environment clock (bandwidth.jitter
// and the trace's multipliers) and the planner over the clock's Current
// under the spec's membership, checked over the spec's rounds. Build and a
// TCP coordinator both call it; the caller ticks the clock before each round.
func (s *Spec) Coordinator(base *netsim.Bandwidth) (*netsim.RoundEnv, *algos.RoundPlanner, error) {
	replay, err := s.replay()
	if err != nil {
		return nil, nil, err
	}
	if replay != nil && base.N != s.Nodes {
		return nil, nil, fmt.Errorf("scenario %s: a %d-node bandwidth matrix cannot replay the %d-node trace", s.Name, base.N, s.Nodes)
	}
	var mults func(int, []float64) []float64
	if replay != nil {
		mults = replay.Multipliers
	}
	// Each round: the bandwidth.jitter draw from the spec seed, then the
	// trace's per-node multipliers.
	env := netsim.NewRoundEnv(base, s.Bandwidth.Jitter, rng.New(s.Seed).Derive(0xd14a).Uint64(), mults)
	p, err := algos.NewRoundPlanner(s.Recipe(), env.Current(), s.gossipConfig(), s.membership(replay), s.Rounds)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return env, p, nil
}

// Build assembles the spec's algorithm over the sharded engine runtime.
// shards overrides the spec's default shard count when > 0; pass 0 to use
// the spec's (whose own 0 means one shard per CPU). The returned clock's
// Current is the environment the algorithm plans over; with bandwidth.jitter
// or a trace block set, Tick(r) before each round r rewrites it in place,
// as RunFull does.
func (s *Spec) Build(shards int) (algos.Algorithm, *netsim.RoundEnv, error) {
	b, err := s.build(shards)
	if err != nil {
		return nil, nil, err
	}
	return b.alg, b.env, nil
}

// built is a spec assembled for the round loop.
type built struct {
	alg   *algos.InProc
	env   *netsim.RoundEnv // the loop ticks it before every round
	valid *dataset.Dataset // nil without data.valid
}

// replay parses the spec's trace block and binds it to the fleet; it is nil
// without a trace block.
func (s *Spec) replay() (*fleettrace.Replay, error) {
	if s.Trace == nil {
		return nil, nil
	}
	tr, err := fleettrace.ParseFile(s.TracePath())
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	interp, err := fleettrace.ParseInterp(s.Trace.Interp)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	rp, err := fleettrace.NewReplay(tr, s.Nodes, interp)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return rp, nil
}

// partitionShards splits the training set per the partition block (IID when
// absent).
func (s *Spec) partitionShards(tr *dataset.Dataset) []*dataset.Dataset {
	p := s.Partition
	if p == nil {
		return dataset.PartitionIID(tr, s.Nodes, s.Seed)
	}
	seed := p.Seed
	if seed == 0 {
		seed = s.Seed
	}
	switch p.Kind {
	case "iid":
		return dataset.PartitionIID(tr, s.Nodes, seed)
	case "dirichlet":
		return dataset.PartitionDirichlet(tr, s.Nodes, p.Alpha, p.MinPerNode, seed)
	case "quantity":
		return dataset.PartitionQuantitySkew(tr, s.Nodes, p.Alpha, p.MinPerNode, seed)
	case "label":
		return dataset.PartitionByLabel(tr, s.Nodes, 2, seed)
	}
	panic("scenario: partitionShards on unvalidated spec: " + p.Kind)
}

// defaultImageNoise is the image task's pixel noise when data.noise is unset
// (the synthetic stand-ins for MNIST and CIFAR-10, DESIGN.md §2).
const defaultImageNoise = 0.4

// task generates the spec's training set and, when data.valid asks for
// one, the held-out validation set.
func (s *Spec) task() (train, valid *dataset.Dataset) {
	d := &s.Data
	seed := d.Seed
	if seed == 0 {
		seed = s.Seed
	}
	if !d.image() {
		train, _ = dataset.TinyTask(d.Samples, d.Classes, seed)
		return train, nil
	}
	noise := d.Noise
	if noise == 0 {
		noise = defaultImageNoise
	}
	train, valid = dataset.ImageTask(s.Name, d.C, d.H, d.W, d.Classes, noise, d.Samples, d.Valid, seed)
	if d.Valid == 0 {
		valid = nil
	}
	return train, valid
}

// Dataset generates the spec's synthetic task and splits its training set
// across the fleet: shards[r] is rank r's, and valid is the held-out set
// (nil without data.valid). Every call returns the same bits, so a TCP
// worker regenerates its own shard instead of receiving it.
func (s *Spec) Dataset() (shards []*dataset.Dataset, valid *dataset.Dataset) {
	train, valid := s.task()
	return s.partitionShards(train), valid
}

// NewModel draws the spec's initial model x₀ from the spec seed. Every call
// returns the same parameters, so every rank of a fleet starts from the same
// bits whichever process builds it: a TCP worker draws its own, an
// in-process fleet draws once and clones the rest (nn.Model.Clone). It fails
// when the model block does not fit the data, or a sparsifier ratio exceeds
// the parameter count.
func (s *Spec) NewModel() (*nn.Model, error) {
	m, err := s.Model.arch().New(s.Data.shape(), s.Data.Classes, s.Seed)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: model: %w", s.Name, err)
	}
	if err := s.checkRatio(m.ParamCount()); err != nil {
		return nil, err
	}
	return m, nil
}

// fleet is the spec's fleet recipe — identically initialized models over
// the partitioned training set — plus the validation set. It draws x₀ once
// (NewModel, whose error it returns) and the factory clones that draw. The
// spec must be validated.
func (s *Spec) fleet(runtimeShards int) (algos.FleetConfig, *dataset.Dataset, error) {
	m, err := s.NewModel()
	if err != nil {
		return algos.FleetConfig{}, nil, err
	}
	shards, valid := s.Dataset()
	return algos.FleetConfig{
		N:             s.Nodes,
		Factory:       m.Clone,
		Shards:        shards,
		LR:            s.LR,
		Batch:         s.Batch,
		Seed:          s.Seed,
		RuntimeShards: runtimeShards,
	}, valid, nil
}

// membership is the dynamic membership the spec's blocks describe: the churn
// model, the fault schedule, and — when the trace block asks for them — the
// join/leave events of replay, its parsed trace. None of the three is the
// static fleet.
func (s *Spec) membership(replay *fleettrace.Replay) algos.Membership {
	m := algos.Membership{Churn: s.Churn}
	if s.Faults != nil {
		sched := s.Faults.Schedule(s.Nodes, s.Seed)
		m.Faults = &sched
	}
	if s.Trace != nil && s.Trace.Events {
		m.Replay = replay
	}
	return m
}

// build is Build plus the round-environment clock the loop ticks each round
// and the validation set it evaluates on.
func (s *Spec) build(shards int) (*built, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// Straggler scaling is baked into the base environment, jitter
	// resamples from that base, and the trace multipliers scale the jittered
	// links (netsim.RoundEnv); the clock's snapshot pointer is what the
	// algorithm, planner and ledger see. Round 0 is the constructor's.
	env, planner, err := s.Coordinator(s.Env())
	if err != nil {
		return nil, err
	}
	if s.PlannerOnly {
		// The coordinator side alone, over a control with no workers: only
		// the model's parameter count matters (the mask dimension), and MLP
		// geometry determines it exactly.
		dim := nn.MLPParamCount(s.Data.shape().Dim(), s.Model.Hidden, s.Data.Classes)
		return &built{alg: algos.NewPlannerOnly(planner, dim, s.Compression), env: env}, nil
	}
	if s.Recipe().Async() {
		return nil, fmt.Errorf("scenario %s: %s has no synchronous rounds to build (RunFull drives the async engine)", s.Name, s.Algo)
	}
	fc, valid, err := s.fleet(s.effectiveShards(shards))
	if err != nil {
		return nil, err
	}
	return &built{alg: algos.New(fc, planner), env: env, valid: valid}, nil
}

// effectiveShards resolves a sweep override against the spec default:
// override > 0 wins, anything else defers to the spec. The result is the
// requested count — 0 stays 0 (the engine then uses one shard per CPU), so
// Result.Shards and every aggregate built from it are the same bytes on any
// machine.
func (s *Spec) effectiveShards(override int) int {
	if override > 0 {
		return override
	}
	return s.Shards
}

// Result is one scenario execution's measurements. TotalBytes is the
// deterministic traffic total (the sum of every endpoint's sent+received
// bytes, server included); the wall and RSS fields are machine-dependent
// (a campaign journals the first in manifest.jsonl, both go to the
// "run complete" log line).
type Result struct {
	Shards      int
	WallSeconds float64
	TotalBytes  int64
	SimSeconds  float64
	FinalLoss   float64
	// PeakRSSBytes is the process's peak resident memory over the run
	// (informational: process-wide, so concurrent runs in one process
	// attribute each other's peaks; 0 when unreadable).
	PeakRSSBytes int64
}

// RunOptions tunes one scenario execution beyond what the spec declares.
type RunOptions struct {
	// Shards is the engine shard override, interpreted exactly as Build's
	// parameter (0 = spec default).
	Shards int
	// Rounds, when non-nil, receives a synchronous run's per-round record as
	// CSV, one row streamed per round (writeRound); an asynchronous run has
	// no rounds and writes nothing.
	Rounds io.Writer
}

// RunOutput is one execution's full yield: the summary Result and the
// per-round series; an asynchronous run adds its event log, final models and
// per-rank ledgers.
type RunOutput struct {
	// Result is the summary row.
	Result Result
	// Losses is the per-round mean training loss.
	Losses []float64
	// CumBytes is the cumulative fleet traffic after each round — the
	// x-axis of the paper's convergence-vs-traffic figures.
	CumBytes []int64
	// CumSimSeconds is the cumulative simulated communication time after
	// each round.
	CumSimSeconds []float64
	// Evals is the periodic evaluation of the worker-averaged model on the
	// spec's validation split (synchronous specs with data.valid only).
	Evals Evals
	// MatchedMBps is each round's mean link bandwidth over its matched pairs
	// (0 for a round that matched none, so every round of a recipe without
	// matchings) — Fig. 5's series (synchronous runs only).
	MatchedMBps []float64
	// Events is the virtual-time transfer/compute event stream (async runs
	// only).
	Events *netsim.EventLog
	// Params holds every rank's final flat parameter vector (async runs
	// only).
	Params [][]float64
	// SentBytes and RecvBytes are the per-rank cumulative byte ledgers
	// (async runs only; synchronous runs read them off the netsim ledger).
	SentBytes, RecvBytes []int64
}

// RunFull builds and executes the scenario against a bandwidth-accounted
// ledger, ticking the dynamic environment (bandwidth.jitter) at every round
// boundary and collecting the per-round series.
func (s *Spec) RunFull(opts RunOptions) (*RunOutput, error) {
	if s.Async != nil {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		return s.runAsync()
	}
	b, err := s.build(opts.Shards)
	if err != nil {
		return nil, err
	}
	profiling.ResetPeakRSS()
	// The series' lengths are known up front, which keeps the round loop
	// free of append regrowth (it would otherwise copy O(rounds) elements
	// log(rounds) times over a long campaign run).
	out := &RunOutput{
		Losses:        make([]float64, 0, s.Rounds),
		CumBytes:      make([]int64, 0, s.Rounds),
		CumSimSeconds: make([]float64, 0, s.Rounds),
		MatchedMBps:   make([]float64, 0, s.Rounds),
	}
	bw := b.env.Current()
	led := netsim.NewLedger(bw)
	var row []byte
	var werr error
	mode, label := "sync", s.Algo
	if s.PlannerOnly {
		mode, label = "planner_only", s.Algo+"/planner"
	}
	ri := obs.Current().RunsM().Start(s.Name, label, s.Nodes, s.Rounds)
	start := time.Now()
	res := RunLoop(b.alg, led, Loop{
		Rounds: s.Rounds,
		Valid:  b.valid,
		// Round 0 runs on the environment built at construction; every
		// later round advances the jitter and/or trace multipliers in
		// place before planning.
		before: b.env.Tick,
		after: func(r int, stats engine.RoundStats) {
			ri.SetRound(r + 1)
			// bw is the round's environment until the next Tick rewrites it.
			mbps := gossip.MeanMatchedBandwidth(stats.Plan.Matching(), bw)
			out.appendSeries(stats.Loss, mbps, led, s.Nodes)
			if opts.Rounds != nil && werr == nil {
				row, werr = writeRound(opts.Rounds, row[:0], r, s.Nodes, stats, mbps)
			}
		},
	})
	wall := time.Since(start).Seconds()
	obs.Current().RunsM().Done(ri)
	if werr != nil {
		return nil, fmt.Errorf("scenario %s: per-round record: %w", s.Name, werr)
	}
	if err := s.checkFinite("round", out.Losses); err != nil {
		return nil, err
	}
	out.Evals = res.Records
	out.finish(s, opts, mode, wall, led, res.FinalLoss)
	return out, nil
}

// checkFinite refuses a run whose mean training loss went NaN or infinite
// at some round (or async sample): a diverged run has no loss to report.
func (s *Spec) checkFinite(unit string, losses []float64) error {
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("scenario %s: the mean training loss is %v at %s %d: the run diverged", s.Name, l, unit, i)
		}
	}
	return nil
}

// appendSeries records one finished round.
func (out *RunOutput) appendSeries(loss, mbps float64, led *netsim.Ledger, nodes int) {
	out.Losses = append(out.Losses, loss)
	out.MatchedMBps = append(out.MatchedMBps, mbps)
	out.CumBytes = append(out.CumBytes, fleetBytes(led, nodes))
	out.CumSimSeconds = append(out.CumSimSeconds, led.TotalTime())
}

// writeRound appends round r's row of the per-round record to buf — after
// the header, ahead of round 0 — writes it to w and returns buf for the next
// row. active counts the plan's present workers (all nodes when it sets no
// Active), pairs lists its matched pairs u-v (u < v) joined by '|', and bytes
// counts each payload once; every float is in shortest round-trip form, so
// the record is exact.
func writeRound(w io.Writer, buf []byte, r, nodes int, st engine.RoundStats, mbps float64) ([]byte, error) {
	if r == 0 {
		buf = append(buf, "round,active,pairs,forced,mean_pair_mbps,payload_words,bytes,sim_seconds,loss\n"...)
	}
	active := nodes
	if st.Plan.Active != nil {
		active = 0
		for _, in := range st.Plan.Active[:nodes] {
			if in {
				active++
			}
		}
	}
	buf = fmt.Appendf(buf, "%d,%d,", r, active)
	sep := ""
	for v, p := range st.Plan.Peer {
		if p > v {
			buf = fmt.Appendf(buf, "%s%d-%d", sep, v, p)
			sep = "|"
		}
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	buf = fmt.Appendf(buf, ",%t,%s,%d,%d,%s,%s\n", st.Plan.Forced,
		g(mbps), st.PayloadLen, st.Bytes, g(st.CommSeconds), g(st.Loss))
	_, err := w.Write(buf)
	return buf, err
}

// finish fills the summary row of a ledger-charged run and logs it.
func (out *RunOutput) finish(s *Spec, opts RunOptions, mode string, wall float64, led *netsim.Ledger, loss float64) {
	out.Result = Result{
		Shards:       s.effectiveShards(opts.Shards),
		WallSeconds:  wall,
		TotalBytes:   fleetBytes(led, s.Nodes),
		SimSeconds:   led.TotalTime(),
		FinalLoss:    loss,
		PeakRSSBytes: profiling.PeakRSS(),
	}
	s.logRunSummary(mode, out)
}

// runAsync executes an asynchronous spec on the engine's event-driven
// driver: the fleet gossips without a global barrier against the virtual
// clock, and the per-round series slots carry the sample series instead
// (Losses[k] is sample k's window-mean loss, CumSimSeconds[k] its virtual
// time). Result.Shards is always 0 — async runs have no engine sharding —
// and the run, event log and final models included, is bit-reproducible
// regardless of GOMAXPROCS.
func (s *Spec) runAsync() (*RunOutput, error) {
	profiling.ResetPeakRSS()
	a := s.Async
	fc, _, err := s.fleet(0) // Validate refuses data.valid: an async run evaluates nothing
	if err != nil {
		return nil, err
	}
	rec := s.Recipe()
	af := algos.NewAsyncFleet(fc, rec)
	var slow []int
	if a.SlowFraction > 0 {
		k := int(math.Ceil(a.SlowFraction * float64(s.Nodes)))
		perm := rng.New(s.Seed).Derive(0xa51c).Perm(s.Nodes)
		slow = append([]int(nil), perm[:k]...)
	}
	eopts := engine.AsyncOptions{
		Nodes:     af.Nodes,
		Codecs:    af.Codecs,
		Bandwidth: s.Env(),
		Seed:      s.Seed,
		Steps:     s.Rounds,
		OneWay:    rec.OneWay(),
		Compute: engine.AsyncComputeModel{
			MeanSeconds: a.ComputeSeconds,
			Jitter:      a.Jitter,
			SlowFactor:  a.SlowFactor,
			SlowRanks:   slow,
		},
		SampleEvery: a.SampleEvery,
	}
	out := &RunOutput{Events: &netsim.EventLog{}}
	eopts.Sink = out.Events
	eng, err := engine.NewAsync(eopts)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	ri := obs.Current().RunsM().Start(s.Name, s.Algo+"/async", s.Nodes, s.Rounds)
	start := time.Now()
	res, err := eng.Run()
	obs.Current().RunsM().Done(ri)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	wall := time.Since(start).Seconds()
	for _, smp := range res.Samples {
		out.Losses = append(out.Losses, smp.MeanLoss)
		out.CumBytes = append(out.CumBytes, smp.CumBytes)
		out.CumSimSeconds = append(out.CumSimSeconds, smp.Time)
	}
	if err := s.checkFinite("sample", out.Losses); err != nil {
		return nil, err
	}
	for _, m := range af.Models {
		out.Params = append(out.Params, m.FlatParams(nil))
	}
	out.SentBytes = res.SentBytes
	out.RecvBytes = res.RecvBytes
	out.Result = Result{
		WallSeconds:  wall,
		TotalBytes:   res.TotalBytes,
		SimSeconds:   res.FinalTime,
		FinalLoss:    res.FinalLoss,
		PeakRSSBytes: profiling.PeakRSS(),
	}
	s.logRunSummary("async", out)
	return out, nil
}

// logRunSummary emits the structured end-of-run line through the global
// logger (a no-op when logging is off), making batch logs greppable
// without parsing artifacts.
func (s *Spec) logRunSummary(mode string, out *RunOutput) {
	l := obs.Logger()
	if l == nil {
		return
	}
	l.Info("run complete",
		"scenario", s.Name,
		"algo", s.Algo,
		"mode", mode,
		"nodes", s.Nodes,
		"rounds", s.Rounds,
		"total_bytes", out.Result.TotalBytes,
		"wall_seconds", out.Result.WallSeconds,
		"sim_seconds", out.Result.SimSeconds,
		"final_loss", out.Result.FinalLoss,
		"peak_rss_bytes", out.Result.PeakRSSBytes,
	)
}

// fleetBytes sums every endpoint's sent+received bytes, server included.
func fleetBytes(led *netsim.Ledger, nodes int) int64 {
	var total int64
	for w := 0; w < nodes; w++ {
		snt, rcv := led.WorkerBytes(w)
		total += snt + rcv
	}
	return total + led.ServerBytes()
}
