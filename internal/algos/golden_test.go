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

	"sapspsgd/internal/engine"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/transport"
)

var update = flag.Bool("update", false, "rewrite testdata/trajectories.golden from the Shards == 1 serial reference")

const goldenPath = "testdata/trajectories.golden"

// goldenCase is one recorded recipe: a scenario spec that both legs build
// from — Spec.Build in process, and a CoordinatorServer with its workers
// over TCP (every case but the churn one, which a TCP fleet does not run).
type goldenCase struct {
	name string
	spec *scenario.Spec
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

// goldenSpec is the recorded recipes' workload: a [10] MLP on the 1×8×8
// image task under the data recipe the lines were recorded with (pixel noise
// 0.35, a fifth of the samples held out, data seed 5, the IID split seeded
// 6), planning over RandomUniform(n, 1, 5, rng.New(2))'s links as an
// explicit matrix, with Algorithm 3 at BThres 2, TThres 5.
func goldenSpec(algo string, n, rounds int) *scenario.Spec {
	bw := netsim.RandomUniform(n, 1, 5, rng.New(2))
	matrix := make([][]float64, n)
	for i := range matrix {
		matrix[i] = make([]float64, n)
		for j := range matrix[i] {
			if i != j {
				matrix[i][j] = bw.MBps(i, j)
			}
		}
	}
	s := &scenario.Spec{
		SchemaVersion: scenario.SpecSchemaVersion, Name: algo, Algo: algo,
		Nodes: n, Rounds: rounds, Seed: 3,
		LR: 0.1, Batch: 8, LocalSteps: 1, Compression: 4, C: 8, Levels: 4, Fraction: 0.5,
		Model:     scenario.ModelSpec{Hidden: []int{10}},
		Data:      scenario.DataSpec{Samples: 320, Classes: 4, C: 1, H: 8, W: 8, Valid: 64, Noise: 0.35, Seed: 5},
		Partition: &scenario.PartitionSpec{Kind: "iid", Seed: 6},
		Bandwidth: scenario.BandwidthSpec{Kind: "matrix", Matrix: matrix},
	}
	if algo == "saps" {
		s.Gossip = &scenario.GossipSpec{BThres: 2, TThres: 5}
	}
	return s
}

// goldenCases writes goldenTrace into a temporary directory for the traced
// cases.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	tracePath := filepath.Join(t.TempDir(), "golden.csv")
	if err := os.WriteFile(tracePath, []byte(goldenTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	for _, algo := range []string{"psgd", "topk-psgd", "qsgd-psgd", "d-psgd", "dcd-psgd", "ps-psgd", "fedavg", "s-fedavg", "saps"} {
		cases = append(cases, goldenCase{algo, goldenSpec(algo, 8, 4)})
	}
	with := func(s *scenario.Spec, edit func(*scenario.Spec)) *scenario.Spec {
		edit(s)
		return s
	}
	// The dynamic-membership cases run eight rounds so that a crash window
	// opens and closes inside the run.
	trace := &scenario.TraceSpec{File: tracePath, Events: true}
	return append(cases,
		goldenCase{"saps-churn", with(goldenSpec("saps", 8, 4), func(s *scenario.Spec) {
			s.Churn = &scenario.ChurnSpec{LeaveProb: 0.3, JoinProb: 0.5, MinActive: 2}
		})},
		goldenCase{"psgd-n6", goldenSpec("psgd", 6, 4)},
		goldenCase{"hub-partial-active", with(goldenSpec("fedavg", 8, 4), func(s *scenario.Spec) { s.Fraction = 0.25 })},
		goldenCase{"randomchoose", goldenSpec("randomchoose", 8, 4)},
		goldenCase{"saps-faults", with(goldenSpec("saps", 8, 8), func(s *scenario.Spec) {
			s.Faults = &scenario.FaultsSpec{
				Crashes:   []scenario.CrashSpec{{Rank: 2, Round: 2, RejoinAfter: 2}, {Rank: 5, Round: 5}},
				Mortality: &scenario.MortalitySpec{Prob: 0.08, MinAlive: 5},
			}
		})},
		goldenCase{"saps-trace", with(goldenSpec("saps", 8, 8), func(s *scenario.Spec) { s.Trace = trace })},
		goldenCase{"saps-trace-faults", with(goldenSpec("saps", 8, 8), func(s *scenario.Spec) {
			s.Trace = trace
			s.Faults = &scenario.FaultsSpec{Crashes: []scenario.CrashSpec{{Rank: 1, Round: 3, RejoinAfter: 2}}}
		})},
	)
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
	alg, env, err := c.spec.Build(shards)
	if err != nil {
		t.Fatal(err)
	}
	if cl, ok := alg.(interface{ Close() }); ok {
		defer cl.Close()
	}
	led := netsim.NewLedger(env.Current())
	var bytes []int64
	var clock []string
	var prev int64
	for r := 0; r < c.spec.Rounds; r++ {
		env.Tick(r)
		alg.Step(r, led)
		// Every byte is tallied once at its sender and once at its
		// receiver (worker or server account), so half the grand total is
		// the round's wire traffic — engine.CountingLedger's RoundBytes.
		total := led.ServerBytes()
		for i := 0; i < c.spec.Nodes; i++ {
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
	srv := &transport.CoordinatorServer{Spec: c.spec, Ledger: led, RejoinWait: 30 * time.Second}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faults := c.spec.Faults
	returns := map[int]int{} // rank → scheduled rejoins
	if faults != nil {
		for _, e := range faults.Crashes {
			if e.RejoinAfter > 0 {
				returns[e.Rank]++
			}
		}
	}
	dir := t.TempDir()
	procs := c.spec.Recipe().Nodes()
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := ""
			if faults != nil {
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
	cases := goldenCases(t)
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
			if c.spec.Churn == nil {
				check(t, want, c.overTCP(t, nil), "tcp")
			}
		})
	}
}
