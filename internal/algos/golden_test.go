// Cross-commit trajectory oracle: testdata/trajectories.golden was recorded
// from the blocking goroutine-per-node pool (engine.Options.Shards == 0 at
// the commit before that pool was deleted) and pins, for every synchronous
// recipe, the final parameter bits, the per-round wire bytes and the netsim
// ledger's simulated clock. Every executor that exists today — the sharded
// runtime at 1, 4, NumCPU and auto shards, and a real TCP fleet — must
// reproduce the file, so a pattern whose per-rank operation order drifts
// fails here even when all executors drift together. The randomchoose and
// saps-faults/-trace/-trace-faults lines were recorded the same way from the
// RandomChoose, SAPSFaults and SAPSTrace types, at the commit before those
// became the one chassis under another planner.
package algos_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/fleettrace"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/transport"
)

var update = flag.Bool("update", false, "rewrite testdata/trajectories.golden from the Shards == 1 serial reference")

const goldenPath = "testdata/trajectories.golden"

// goldenCase is one recorded recipe. churn and random are in-process only:
// the TCP coordinator takes declarative fault schedules and trace replays,
// not a ChurnModel or another planner.
type goldenCase struct {
	name   string
	n      int
	spec   transport.TaskSpec
	churn  *algos.ChurnModel
	random bool                 // RandomChoose's planner instead of Algorithm 3
	faults *algos.FaultSchedule // scheduled crashes, rejoins and mortality
	trace  bool                 // replay goldenTrace: multipliers and join/leave events
}

// goldenTrace scripts an 8-node, 8-round day: per-node bandwidth multipliers
// and two scripted absences (node 4 for rounds [1, 4), node 2 for [2, 5)),
// with node 3 leaving for good at round 6.
const goldenTrace = `round,node,bw,event
0,0,1.0,
0,1,0.8,
0,2,1.2,
0,3,0.6,
0,6,1.5,
1,4,,leave
2,2,,leave
3,0,0.5,
4,1,1.4,
4,4,0.9,join
5,2,1.0,join
6,3,,leave
6,7,0.7,
`

func goldenCases() []goldenCase {
	spec := func(algo string, fraction float64) transport.TaskSpec {
		return transport.TaskSpec{
			Arch: "mlp", C: 1, H: 8, W: 8, Classes: 4,
			Hidden: []int{10}, Samples: 320, DataSeed: 5,
			LR: 0.1, Batch: 8, Compression: 4, LocalSteps: 1,
			Rounds: 4, Seed: 3,
			Algo: algo, AlgoC: 8, QLevels: 4, Fraction: fraction,
		}
	}
	var cases []goldenCase
	for _, algo := range []string{"psgd", "topk-psgd", "qsgd-psgd", "d-psgd", "dcd-psgd", "ps-psgd", "fedavg", "s-fedavg", "saps"} {
		cases = append(cases, goldenCase{name: algo, n: 8, spec: spec(algo, 0.5)})
	}
	// The dynamic-membership cases run eight rounds so that a crash window
	// opens and closes inside the run.
	long := spec("saps", 0)
	long.Rounds = 8
	return append(cases,
		goldenCase{name: "saps-churn", n: 8, spec: spec("saps", 0), churn: &algos.ChurnModel{LeaveProb: 0.3, JoinProb: 0.5, MinActive: 2}},
		goldenCase{name: "psgd-n6", n: 6, spec: spec("psgd", 0)},
		goldenCase{name: "hub-partial-active", n: 8, spec: spec("fedavg", 0.25)},
		goldenCase{name: "randomchoose", n: 8, spec: spec("saps", 0), random: true},
		goldenCase{name: "saps-faults", n: 8, spec: long, faults: &algos.FaultSchedule{
			N: 8, Seed: long.Seed,
			Events:    []algos.FaultEvent{{Rank: 2, Round: 2, RejoinAfter: 2}, {Rank: 5, Round: 5}},
			Mortality: &algos.FaultMortality{Prob: 0.08, MinAlive: 5},
		}},
		goldenCase{name: "saps-trace", n: 8, spec: long, trace: true},
		goldenCase{name: "saps-trace-faults", n: 8, spec: long, trace: true, faults: &algos.FaultSchedule{
			N: 8, Seed: long.Seed,
			Events: []algos.FaultEvent{{Rank: 1, Round: 3, RejoinAfter: 2}},
		}},
	)
}

// replay binds goldenTrace to the case's fleet (nil without trace).
func (c goldenCase) replay(t *testing.T) *fleettrace.Replay {
	t.Helper()
	if !c.trace {
		return nil
	}
	tr, err := fleettrace.Parse([]byte(goldenTrace))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := fleettrace.NewReplay(tr, c.n, fleettrace.InterpHold)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

func (c goldenCase) env() *netsim.Bandwidth { return netsim.RandomUniform(c.n, 1, 5, rng.New(2)) }

func (c goldenCase) gossip() gossip.Config { return gossip.Config{BThres: 2, TThres: 5} }

// build assembles the case's in-process algorithm at the given shard count
// from the same TaskSpec a TCP fleet is deployed from. It returns the
// environment the algorithm plans over and the per-round hook that advances
// it (the trace's bandwidth multipliers; a no-op for a static environment).
func (c goldenCase) build(t *testing.T, shards int) (algos.Algorithm, *netsim.Bandwidth, func(r int)) {
	t.Helper()
	s := c.spec
	data, _ := s.BuildShards(c.n)
	fc := algos.FleetConfig{
		N: c.n,
		Factory: func() *nn.Model {
			m, err := s.BuildModel()
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		Shards: data, LR: s.LR, Batch: s.Batch, Seed: s.Seed,
		RuntimeShards: shards,
	}
	bw := c.env()
	tick := func(int) {}
	rp := c.replay(t)
	if rp != nil {
		// The scenario layer's composition: the clock's snapshot is what
		// the planner and the ledger see, rewritten in place every round.
		env := netsim.NewRoundEnv(bw, 0, 0, rp.Multipliers)
		bw, tick = env.Current(), env.Tick
	}
	var alg algos.Algorithm
	switch s.Algo {
	case "psgd":
		alg = algos.NewPSGD(fc)
	case "topk-psgd":
		alg = algos.NewTopKPSGD(fc, s.AlgoC)
	case "qsgd-psgd":
		alg = algos.NewQSGDPSGD(fc, s.QLevels)
	case "d-psgd":
		alg = algos.NewDPSGD(fc)
	case "dcd-psgd":
		alg = algos.NewDCDPSGD(fc, s.AlgoC)
	case "ps-psgd":
		alg = algos.NewPSPSGD(fc, bw)
	case "fedavg":
		alg = algos.NewFedAvg(fc, bw, s.Fraction, s.LocalSteps)
	case "s-fedavg":
		alg = algos.NewSFedAvg(fc, bw, s.Fraction, s.LocalSteps, s.AlgoC)
	case "saps":
		cfg := core.Config{
			Workers: c.n, Compression: s.Compression, LR: s.LR, Batch: s.Batch,
			LocalSteps: s.LocalSteps, Gossip: c.gossip(), Seed: s.Seed,
		}
		if c.random {
			alg = algos.NewRandomChoose(fc, bw, cfg)
		} else {
			alg = algos.NewSAPSDynamic(fc, bw, cfg, algos.Membership{Churn: c.churn, Faults: c.faults, Replay: rp})
		}
	default:
		t.Fatalf("golden: no builder for %q", s.Algo)
	}
	return alg, bw, tick
}

// paramHash is the SHA-256 of the models' parameter bits, in order.
func paramHash(params ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range params {
		for _, v := range p {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func joinInts(xs []int64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

// inProc runs the case in-process against a netsim ledger and returns its
// golden fields: model0 (the model a deployment collects), fleet (every
// live model), per-round bytes, and the simulated clock's bits per round.
func (c goldenCase) inProc(t *testing.T, shards int) map[string]string {
	t.Helper()
	alg, bw, tick := c.build(t, shards)
	if cl, ok := alg.(interface{ Close() }); ok {
		defer cl.Close()
	}
	led := netsim.NewLedger(bw)
	var bytes []int64
	var clock []string
	var prev int64
	for r := 0; r < c.spec.Rounds; r++ {
		tick(r)
		alg.Step(r, led)
		// Every byte is tallied once at its sender and once at its
		// receiver (worker or server account), so half the grand total is
		// the round's wire traffic — engine.CountingLedger's RoundBytes.
		total := led.ServerBytes()
		for i := 0; i < c.n; i++ {
			s, rcv := led.WorkerBytes(i)
			total += s + rcv
		}
		bytes = append(bytes, total/2-prev)
		prev = total / 2
		clock = append(clock, fmt.Sprintf("%016x", math.Float64bits(led.Clock())))
	}
	var all [][]float64
	for _, m := range alg.Models() {
		all = append(all, m.FlatParams(nil))
	}
	return map[string]string{
		"model0": paramHash(all[0]),
		"fleet":  paramHash(all...),
		"bytes":  joinInts(bytes),
		"clock":  strings.Join(clock, ","),
	}
}

// overTCP deploys the case on a loopback fleet and returns the fields a
// deployment can observe: the collected model and the per-round bytes. With
// a fault schedule the coordinator really kills the scheduled workers; each
// is restarted from its snapshot as often as the schedule has it return;
// onCrash, when non-nil, sees the killed rank and its snapshot file first.
func (c goldenCase) overTCP(t *testing.T, onCrash func(rank int, snapPath string)) map[string]string {
	t.Helper()
	led := &engine.CountingLedger{}
	srv := &transport.CoordinatorServer{
		N: c.n, Task: c.spec, BW: c.env(), Gossip: c.gossip(), Ledger: led,
		Faults: c.faults, Replay: c.replay(t), ReplayEvents: c.trace,
		RejoinWait: 30 * time.Second,
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	returns := map[int]int{} // rank → scheduled rejoins
	if c.faults != nil {
		for _, e := range c.faults.Events {
			if e.RejoinAfter > 0 {
				returns[e.Rank]++
			}
		}
	}
	dir := t.TempDir()
	procs := c.spec.Recipe(c.n).Nodes()
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := ""
			if c.faults != nil {
				path = filepath.Join(dir, fmt.Sprintf("worker-%d.snap", i))
			}
			wc := &transport.WorkerClient{SnapshotPath: path}
			_, err := wc.Run(addr, "127.0.0.1:0")
			for restarts := 0; errors.Is(err, transport.ErrCrashed); restarts++ {
				if onCrash != nil {
					onCrash(wc.Rank(), path)
				}
				if restarts == returns[wc.Rank()] {
					err = nil // killed for good: a permanent crash or a mortality death
					break
				}
				wc = &transport.WorkerClient{SnapshotPath: path, Resume: true}
				_, err = wc.Run(addr, "127.0.0.1:0")
			}
			errs[i] = err
		}(i)
	}
	final, err := srv.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("worker %d: %v", i, e)
		}
	}
	return map[string]string{"model0": paramHash(final), "bytes": joinInts(led.RoundBytes())}
}

var goldenFields = []string{"model0", "fleet", "bytes", "clock"}

func readGolden(t *testing.T) map[string]map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (record it with go test ./internal/algos -run TestGoldenTrajectories -update)", err)
	}
	defer f.Close()
	out := map[string]map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		rec := map[string]string{}
		for _, kv := range parts[1:] {
			k, v, _ := strings.Cut(kv, "=")
			rec[k] = v
		}
		out[parts[0]] = rec
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenTrajectories checks every executor against the recorded file.
func TestGoldenTrajectories(t *testing.T) {
	cases := goldenCases()
	if *update {
		var sb strings.Builder
		sb.WriteString("# Recorded by TestGoldenTrajectories -update; see golden_test.go. One recipe per line.\n")
		for _, c := range cases {
			rec := c.inProc(t, 1)
			sb.WriteString(c.name)
			for _, k := range goldenFields {
				fmt.Fprintf(&sb, " %s=%s", k, rec[k])
			}
			sb.WriteByte('\n')
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden := readGolden(t)
	if len(golden) != len(cases) {
		t.Fatalf("golden file has %d recipes, want %d", len(golden), len(cases))
	}
	check := func(t *testing.T, want, got map[string]string, label string) {
		t.Helper()
		for k, v := range got {
			if want[k] != v {
				t.Errorf("%s %s:\n got  %s\n want %s", label, k, v, want[k])
			}
		}
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			want, ok := golden[c.name]
			if !ok {
				t.Fatalf("no golden record for %s", c.name)
			}
			// 0 is the engine's default: one shard per CPU.
			for _, shards := range []int{1, 4, runtime.NumCPU(), 0} {
				check(t, want, c.inProc(t, shards), fmt.Sprintf("shards=%d", shards))
			}
			if c.churn == nil && !c.random {
				check(t, want, c.overTCP(t, nil), "tcp")
			}
		})
	}
}
