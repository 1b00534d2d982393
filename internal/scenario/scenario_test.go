package scenario

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sapspsgd/internal/netsim"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden spec files")

// TestSpecGoldenRoundTrip pins every example spec's parsed, canonical form:
// load → re-marshal must match the committed golden byte for byte, and the
// canonical form must re-parse to the same canonical form (a stable
// fixpoint). Run with -update to regenerate after an intentional schema
// change (which also requires bumping SpecSchemaVersion).
func TestSpecGoldenRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata specs (%v)", err)
	}
	for _, path := range paths {
		path := path
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			spec, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if spec.Name != name {
				t.Fatalf("spec name %q does not match file name %q", spec.Name, name)
			}
			canon, err := spec.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "golden", name+".golden")
			if *update {
				if err := os.WriteFile(golden, canon, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run `go test -run Golden -update ./internal/scenario`): %v", err)
			}
			if !bytes.Equal(canon, want) {
				t.Errorf("canonical form drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, canon, want)
			}
			reparsed, err := Parse(canon)
			if err != nil {
				t.Fatalf("canonical form does not re-parse: %v", err)
			}
			canon2, err := reparsed.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(canon, canon2) {
				t.Errorf("canonical form is not a fixpoint")
			}
		})
	}
}

// minimal returns a valid spec the rejection tests mutate.
func minimal() Spec {
	return Spec{
		SchemaVersion: SpecSchemaVersion,
		Name:          "t",
		Algo:          "psgd",
		Nodes:         4,
		Rounds:        2,
		Seed:          3,
		LR:            0.1,
		Batch:         8,
		Model:         ModelSpec{Hidden: []int{8}},
		Data:          DataSpec{Samples: 64, Classes: 4},
		Bandwidth:     BandwidthSpec{Kind: "uniform", Lo: 1, Hi: 5},
	}
}

func TestSpecRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"unknown algo", func(s *Spec) { s.Algo = "warp-sgd" }, "unknown algorithm"},
		{"qsgd levels wider than a float32", func(s *Spec) { s.Algo, s.Levels = "qsgd-psgd", 1<<40 }, "need 42-bit codes"},
		{"zero nodes", func(s *Spec) { s.Nodes = 0 }, "0 nodes"},
		{"zero rounds", func(s *Spec) { s.Rounds = 0 }, "0 rounds"},
		{"negative uniform bandwidth", func(s *Spec) { s.Bandwidth.Lo, s.Bandwidth.Hi = -1, 5 }, "uniform bandwidth"},
		{"inverted uniform bandwidth", func(s *Spec) { s.Bandwidth.Lo, s.Bandwidth.Hi = 5, 1 }, "uniform bandwidth"},
		{"unknown bandwidth kind", func(s *Spec) { s.Bandwidth.Kind = "wormhole" }, "unknown bandwidth kind"},
		{"more clusters than nodes", func(s *Spec) {
			s.Bandwidth = BandwidthSpec{Kind: "clustered", Clusters: 5, Fast: 10, Slow: 1}
		}, "clustered bandwidth has 5 clusters for 4 nodes"},
		{"more sparse clusters than nodes", func(s *Spec) {
			s.Bandwidth = BandwidthSpec{Kind: "sparse-clustered", Clusters: 5, Fast: 10, Slow: 1, Degree: 2}
		}, "sparse-clustered bandwidth has 5 clusters for 4 nodes"},
		{"cities with wrong fleet", func(s *Spec) { s.Bandwidth = BandwidthSpec{Kind: "cities"} }, "needs 14 nodes"},
		{"negative matrix entry", func(s *Spec) {
			s.Nodes, s.Data.Samples = 2, 64
			s.Bandwidth = BandwidthSpec{Kind: "matrix", Matrix: [][]float64{{0, -3}, {-3, 0}}}
		}, "negative bandwidth"},
		{"matrix shape mismatch", func(s *Spec) {
			s.Bandwidth = BandwidthSpec{Kind: "matrix", Matrix: [][]float64{{0, 1}, {1, 0}}}
		}, "matrix of 2 rows for 4 nodes"},
		{"churn on non-saps", func(s *Spec) { s.Churn = &ChurnSpec{LeaveProb: 0.1, JoinProb: 0.5, MinActive: 2} }, "requires algo saps"},
		{"bad churn probability", func(s *Spec) {
			s.Algo, s.Compression = "saps", 10
			s.Churn = &ChurnSpec{LeaveProb: 1.5, JoinProb: 0.5, MinActive: 2}
		}, "churn probabilities"},
		{"straggler slowdown below one", func(s *Spec) { s.Straggler = &StragglerSpec{Fraction: 0.5, Slowdown: 0.5} }, "straggler slowdown"},
		{"jitter at one", func(s *Spec) { s.Bandwidth.Jitter = 1 }, "jitter"},
		{"negative jitter", func(s *Spec) { s.Bandwidth.Jitter = -0.2 }, "jitter"},
		{"record_trace on non-saps", func(s *Spec) { s.RecordTrace = true }, "record_trace requires algo saps"},
		{"unknown model arch", func(s *Spec) { s.Model.Arch = "transformer" }, "unknown arch"},
		{"negative hidden width", func(s *Spec) { s.Model.Hidden = []int{-4} }, "hidden width -4"},
		{"cnn without width", func(s *Spec) { s.Model = ModelSpec{Arch: "cifar-cnn"} }, "width 0"},
		{"cnn on unpoolable geometry", func(s *Spec) {
			s.Model = ModelSpec{Arch: "mnist-cnn", Width: 0.25}
			s.Data.C, s.Data.H, s.Data.W = 1, 10, 10
		}, "divisible by 4"},
		{"negative resnet blocks", func(s *Spec) { s.Model = ModelSpec{Arch: "resnet", Width: 0.5, Blocks: -1} }, "blocks -1"},
		{"partial data geometry", func(s *Spec) { s.Data.C, s.Data.H = 1, 8 }, "data geometry 1x8x0"},
		{"negative data geometry", func(s *Spec) { s.Data.C, s.Data.H, s.Data.W = 1, -8, 8 }, "data geometry 1x-8x8"},
		{"validation split as large as training", func(s *Spec) {
			s.Data.C, s.Data.H, s.Data.W, s.Data.Valid = 1, 8, 8, 64
		}, "64 validation samples beside 64"},
		{"more classes than samples", func(s *Spec) { s.Data.Samples, s.Data.Classes = 8, 50 }, "data.classes 50 over data.samples 8"},
		{"negative validation split", func(s *Spec) { s.Data.Valid = -1 }, "-1 validation samples"},
		{"validation split on the tiny task", func(s *Spec) { s.Data.Valid = 16 }, "needs the image task"},
		{"pixel noise on the tiny task", func(s *Spec) { s.Data.Noise = 0.35 }, "data.noise needs the image task"},
		{"negative pixel noise", func(s *Spec) { s.Data.C, s.Data.H, s.Data.W, s.Data.Noise = 1, 8, 8, -0.1 }, "data.noise -0.1"},
		{"NaN pixel noise", func(s *Spec) { s.Data.C, s.Data.H, s.Data.W, s.Data.Noise = 1, 8, 8, math.NaN() }, "data.noise NaN"},
		{"planner_only with a cnn", func(s *Spec) {
			s.Algo, s.Compression = "saps", 10
			s.PlannerOnly = true
			s.Model = ModelSpec{Arch: "mnist-cnn", Width: 0.25}
		}, "planner_only sizes the mask from the MLP"},
		{"gossip on randomchoose", func(s *Spec) {
			s.Algo, s.Compression = "randomchoose", 10
			s.Gossip = &GossipSpec{BThres: 1, TThres: 5}
		}, "require algo saps"},
		{"randomchoose without compression", func(s *Spec) { s.Algo = "randomchoose" }, "compression"},
		// minimal's MLP has 64·8+8 + 8·4+4 = 556 parameters.
		{"saps mask keeping nothing", func(s *Spec) { s.Algo, s.Compression = "saps", 1e9 }, "compression 1e+09 exceeds the model's 556 parameters"},
		{"top-k budget below one entry", func(s *Spec) { s.Algo, s.C = "topk-psgd", 557 }, "c 557 exceeds the model's 556 parameters"},
		{"cnn random-k budget below one entry", func(s *Spec) {
			s.Algo, s.C, s.Fraction, s.LocalSteps = "s-fedavg", 1e9, 0.5, 1
			s.Model = ModelSpec{Arch: "mnist-cnn", Width: 0.25}
			s.Data.C, s.Data.H, s.Data.W = 1, 8, 8
		}, "c 1e+09 exceeds the model's"},
		{"partition label with alpha", func(s *Spec) { s.Partition = &PartitionSpec{Kind: "label", Alpha: 0.5} }, "label takes no alpha"},
		{"partition label with too few samples", func(s *Spec) {
			s.Nodes, s.Data.Samples = 40, 64
			s.Partition = &PartitionSpec{Kind: "label"}
		}, "cannot fill 80"},
		{"trace without file", func(s *Spec) { s.Trace = &TraceSpec{} }, "trace block missing file"},
		{"trace bad interp", func(s *Spec) { s.Trace = &TraceSpec{File: "t.csv", Interp: "cubic"} }, "trace interp"},
		{"trace events on non-saps", func(s *Spec) { s.Trace = &TraceSpec{File: "t.csv", Events: true} }, "trace events require algo saps"},
		{"trace with churn", func(s *Spec) {
			s.Algo, s.Compression = "saps", 10
			s.Trace = &TraceSpec{File: "t.csv", Events: true}
			s.Churn = &ChurnSpec{LeaveProb: 0.1, JoinProb: 0.5, MinActive: 2}
		}, "trace and churn are mutually exclusive"},
		{"planner_only with trace block", func(s *Spec) {
			s.Algo, s.Compression = "saps", 10
			s.PlannerOnly = true
			s.Trace = &TraceSpec{File: "t.csv"}
		}, "excludes churn/faults/trace"},
		{"partition unknown kind", func(s *Spec) { s.Partition = &PartitionSpec{Kind: "sorted"} }, "unknown partition kind"},
		{"partition dirichlet without alpha", func(s *Spec) { s.Partition = &PartitionSpec{Kind: "dirichlet"} }, "needs alpha > 0"},
		{"partition quantity negative alpha", func(s *Spec) { s.Partition = &PartitionSpec{Kind: "quantity", Alpha: -1} }, "needs alpha > 0"},
		{"partition iid with alpha", func(s *Spec) { s.Partition = &PartitionSpec{Kind: "iid", Alpha: 0.5} }, "iid takes no alpha"},
		{"partition negative floor", func(s *Spec) { s.Partition = &PartitionSpec{Kind: "dirichlet", Alpha: 1, MinPerNode: -1} }, "min_per_node -1"},
		{"partition floor exceeds samples", func(s *Spec) {
			s.Partition = &PartitionSpec{Kind: "quantity", Alpha: 1, MinPerNode: 100}
		}, "exceeds 64 samples"},
		{"negative shards", func(s *Spec) { s.Shards = -2 }, "-2 shards"},
		{"wrong schema version", func(s *Spec) { s.SchemaVersion = 99 }, "schema_version"},
		{"saps without compression", func(s *Spec) { s.Algo = "saps" }, "compression"},
		{"fedavg without fraction", func(s *Spec) { s.Algo = "fedavg"; s.LocalSteps = 2 }, "fraction"},
		{"gossip on non-saps", func(s *Spec) { s.Gossip = &GossipSpec{BThres: 1, TThres: 5} }, "require algo saps"},
		{"gossip with zero recency window", func(s *Spec) {
			s.Algo, s.Compression = "saps", 10
			s.Gossip = &GossipSpec{BThres: 1} // t_thres omitted in JSON decodes to 0
		}, "t_thres 0"},
		{"faults on non-saps", func(s *Spec) {
			s.Faults = &FaultsSpec{Crashes: []CrashSpec{{Rank: 1, Round: 1, RejoinAfter: 1}}}
		}, "faults require algo saps"},
		{"faults with churn", func(s *Spec) {
			s.Algo, s.Compression = "saps", 10
			s.Churn = &ChurnSpec{LeaveProb: 0.1, JoinProb: 0.5, MinActive: 2}
			s.Faults = &FaultsSpec{Crashes: []CrashSpec{{Rank: 1, Round: 1, RejoinAfter: 1}}}
		}, "mutually exclusive"},
		{"empty faults block", func(s *Spec) {
			s.Algo, s.Compression = "saps", 10
			s.Faults = &FaultsSpec{}
		}, "empty faults block"},
		{"crash beyond the run", func(s *Spec) {
			s.Algo, s.Compression = "saps", 10
			s.Faults = &FaultsSpec{Crashes: []CrashSpec{{Rank: 1, Round: 7}}}
		}, "only 2 rounds"},
		{"crash rank out of range", func(s *Spec) {
			s.Algo, s.Compression = "saps", 10
			s.Faults = &FaultsSpec{Crashes: []CrashSpec{{Rank: 4, Round: 1}}}
		}, "rank 4 of 4"},
		{"negative rejoin_after", func(s *Spec) {
			s.Algo, s.Compression = "saps", 10
			s.Faults = &FaultsSpec{Crashes: []CrashSpec{{Rank: 1, Round: 1, RejoinAfter: -2}}}
		}, "negative rejoin_after"},
		{"overlapping crash windows", func(s *Spec) {
			s.Algo, s.Compression = "saps", 10
			s.Rounds = 6
			s.Faults = &FaultsSpec{Crashes: []CrashSpec{
				{Rank: 1, Round: 1, RejoinAfter: 3},
				{Rank: 1, Round: 2, RejoinAfter: 1},
			}}
		}, "overlapping fault windows"},
		{"crashes leaving one worker", func(s *Spec) {
			s.Algo, s.Compression = "saps", 10
			s.Faults = &FaultsSpec{Crashes: []CrashSpec{
				{Rank: 0, Round: 1, RejoinAfter: 1},
				{Rank: 1, Round: 1, RejoinAfter: 1},
				{Rank: 2, Round: 1, RejoinAfter: 1},
			}}
		}, "leave 1 of 4 workers"},
		{"mortality floor below two", func(s *Spec) {
			s.Algo, s.Compression = "saps", 10
			s.Faults = &FaultsSpec{Mortality: &MortalitySpec{Prob: 0.1, MinAlive: 1}}
		}, "min_alive 1 of 4"},
		// Each block is valid alone (the trace keeps two workers, the crash
		// three); only the composed membership, known once the trace file is
		// read, leaves a round with one.
		{"trace events and a crash leaving one worker", func(s *Spec) {
			s.Algo, s.Compression = "saps", 10
			file := filepath.Join(t.TempDir(), "thin.csv")
			if err := os.WriteFile(file, []byte("round,node,bw,event\n1,2,,leave\n1,3,,leave\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			s.Trace = &TraceSpec{File: file, Events: true}
			s.Faults = &FaultsSpec{Crashes: []CrashSpec{{Rank: 0, Round: 1, RejoinAfter: 1}}}
		}, "leave 1 active workers at round 1"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := minimal()
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				// What only the spec's files can show is rejected when the
				// scenario is built.
				_, _, err = s.Build(1)
			}
			if err == nil {
				t.Fatalf("validated a spec with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"schema_version":1,"name":"t","algo":"psgd","nodes":4,"rounds":2,
		"lr":0.1,"batch":8,"model":{"hidden":[8]},"data":{"samples":64,"classes":4},
		"bandwidth":{"kind":"uniform","lo":1,"hi":5},"warp_factor":9}`))
	if err == nil || !strings.Contains(err.Error(), "warp_factor") {
		t.Fatalf("unknown field accepted: %v", err)
	}
}

// TestDivergedRunIsAnError: a step size that overflows the model makes every
// trainer's loss NaN by the second round. The run must fail naming the
// scenario, the round and the value — not complete with a final loss of 0,
// the best loss any summary could show.
func TestDivergedRunIsAnError(t *testing.T) {
	for _, tc := range []struct{ algo, async, want string }{
		{"psgd", "", "at round 1"},
		{"adpsgd", `,"async":{"compute_seconds":0.02}`, "at sample"},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			s, err := Parse([]byte(`{"schema_version":2,"name":"diverge","algo":"` + tc.algo + `","nodes":4,"rounds":2,
				"seed":3,"lr":1e308,"batch":4,"model":{"hidden":[8]},"data":{"samples":64,"classes":2},
				"bandwidth":{"kind":"uniform","lo":1,"hi":5}` + tc.async + `}`))
			if err != nil {
				t.Fatal(err)
			}
			out, err := s.RunFull(RunOptions{})
			if err == nil {
				t.Fatalf("diverged run returned no error: losses %v, final loss %v", out.Losses, out.Result.FinalLoss)
			}
			for _, want := range []string{"scenario diverge", tc.want, "NaN"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
		})
	}
}

// TestRunDeterministicAcrossShards is the scenario-level determinism gate:
// the same spec at different shard counts must move exactly the same bytes
// and end at exactly the same loss.
func TestRunDeterministicAcrossShards(t *testing.T) {
	for _, file := range []string{"fedavg-uniform", "psgd-clustered", "dpsgd-trace", "topk-straggler"} {
		file := file
		t.Run(file, func(t *testing.T) {
			t.Parallel()
			spec, err := Load(filepath.Join("testdata", file+".json"))
			if err != nil {
				t.Fatal(err)
			}
			serial, err := spec.Run(1) // serial reference
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 4} {
				got, err := spec.Run(shards)
				if err != nil {
					t.Fatal(err)
				}
				if got.TotalBytes != serial.TotalBytes {
					t.Errorf("shards=%d: %d bytes, serial moved %d", shards, got.TotalBytes, serial.TotalBytes)
				}
				if got.FinalLoss != serial.FinalLoss {
					t.Errorf("shards=%d: final loss %v, serial %v", shards, got.FinalLoss, serial.FinalLoss)
				}
				if got.SimSeconds != serial.SimSeconds {
					t.Errorf("shards=%d: sim time %v, serial %v", shards, got.SimSeconds, serial.SimSeconds)
				}
			}
		})
	}
}

// TestRunFaultScenario smoke-tests the fault path end to end: the golden
// crash+rejoin scenario must run deterministically across shard counts, move
// bytes, and actually exclude the crashed workers from traffic during their
// windows (absent workers neither train nor communicate).
func TestRunFaultScenario(t *testing.T) {
	spec, err := Load(filepath.Join("testdata", "saps-crash-rejoin.json"))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := spec.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := spec.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.TotalBytes != sharded.TotalBytes || serial.FinalLoss != sharded.FinalLoss {
		t.Fatalf("fault scenario diverged: serial %d B loss %v, sharded %d B loss %v",
			serial.TotalBytes, serial.FinalLoss, sharded.TotalBytes, sharded.FinalLoss)
	}
	if serial.TotalBytes == 0 {
		t.Fatal("fault scenario moved no bytes")
	}
	// The same spec without faults must move strictly more bytes: crashed
	// workers stop communicating.
	healthy := *spec
	healthy.Faults = nil
	full, err := healthy.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if full.TotalBytes <= serial.TotalBytes {
		t.Fatalf("faults did not reduce traffic: %d B with faults, %d B without", serial.TotalBytes, full.TotalBytes)
	}
}

// TestStragglerSlowsSimTime checks the straggler model actually reaches the
// ledger: slowing a quarter of the fleet must strictly increase simulated
// communication time while moving identical bytes.
func TestStragglerSlowsSimTime(t *testing.T) {
	spec, err := Load(filepath.Join("testdata", "topk-straggler.json"))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := spec.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	healthy := *spec
	healthy.Straggler = nil
	fast, err := healthy.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if slow.TotalBytes != fast.TotalBytes {
		t.Errorf("straggler changed traffic: %d vs %d bytes", slow.TotalBytes, fast.TotalBytes)
	}
	if slow.SimSeconds <= fast.SimSeconds {
		t.Errorf("straggler did not slow the fleet: %v <= %v sim seconds", slow.SimSeconds, fast.SimSeconds)
	}
}

// TestScaledBandwidth pins the straggler scaling itself.
func TestScaledBandwidth(t *testing.T) {
	bw := netsim.RandomUniform(4, 1, 5, rng.New(3))
	scaled := bw.Scaled([]int{1}, 2)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := bw.MBps(i, j)
			if i != j && (i == 1 || j == 1) {
				want /= 2
			}
			if got := scaled.MBps(i, j); got != want {
				t.Fatalf("link %d-%d: %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestJitterScenario covers the time-varying environment end to end: the
// golden jitter spec must run deterministically across shard counts, and
// the jitter must actually reach the run — dropping it changes the
// simulated communication time.
func TestJitterScenario(t *testing.T) {
	spec, err := Load(filepath.Join("testdata", "saps-jitter.json"))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := spec.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if serial.TotalBytes == 0 {
		t.Fatal("jitter scenario moved no bytes")
	}
	for _, shards := range []int{1, 3} {
		got, err := spec.Run(shards)
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalBytes != serial.TotalBytes || got.FinalLoss != serial.FinalLoss || got.SimSeconds != serial.SimSeconds {
			t.Errorf("shards=%d diverged: %d B loss %v sim %v, serial %d B loss %v sim %v",
				shards, got.TotalBytes, got.FinalLoss, got.SimSeconds,
				serial.TotalBytes, serial.FinalLoss, serial.SimSeconds)
		}
	}
	static := spec.Clone()
	static.Bandwidth.Jitter = 0
	flat, err := static.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if flat.SimSeconds == serial.SimSeconds {
		t.Error("jitter did not change the simulated communication time")
	}
}

// TestTraceFromEngineRuns pins the trace hook on the canonical engine path:
// a spec with trace set yields a recorder with one event per round (plain
// SAPS via the spec flag; churned SAPS via the run option), with sane
// active-worker counts.
func TestTraceFromEngineRuns(t *testing.T) {
	spec, err := Load(filepath.Join("testdata", "saps-jitter.json"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.RunFull(RunOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("spec trace flag did not attach a recorder")
	}
	if out.Trace.Len() != spec.Rounds {
		t.Fatalf("recorded %d rounds, ran %d", out.Trace.Len(), spec.Rounds)
	}
	if out.Trace.MeanMatchedBandwidth() <= 0 {
		t.Error("trace recorded no matched bandwidth")
	}

	churn, err := Load(filepath.Join("testdata", "saps-cities-churn.json"))
	if err != nil {
		t.Fatal(err)
	}
	cout, err := churn.RunFull(RunOptions{Shards: 2, Recorder: trace.NewRecorder()})
	if err != nil {
		t.Fatal(err)
	}
	if cout.Trace == nil || cout.Trace.Len() != churn.Rounds {
		t.Fatalf("churn trace: %v", cout.Trace)
	}
	for _, ev := range cout.Trace.Events() {
		if ev.ActiveWorkers < 1 || ev.ActiveWorkers > churn.Nodes {
			t.Fatalf("round %d: %d active workers of %d", ev.Round, ev.ActiveWorkers, churn.Nodes)
		}
	}
	if len(cout.Losses) != churn.Rounds || len(cout.CumBytes) != churn.Rounds {
		t.Fatalf("series lengths %d/%d, want %d", len(cout.Losses), len(cout.CumBytes), churn.Rounds)
	}
	if cout.CumBytes[churn.Rounds-1] != cout.Result.TotalBytes {
		t.Errorf("cumulative series ends at %d bytes, total is %d", cout.CumBytes[churn.Rounds-1], cout.Result.TotalBytes)
	}
	for i := 1; i < len(cout.CumBytes); i++ {
		if cout.CumBytes[i] < cout.CumBytes[i-1] {
			t.Fatalf("cumulative bytes decreased at round %d", i)
		}
	}
}

// TestDataNoiseAndSplitSeed: data.noise and partition.seed default to what a
// spec without them has always meant — pixel noise 0.4 and the spec seed —
// and either one moves the data when set to anything else.
func TestDataNoiseAndSplitSeed(t *testing.T) {
	base := minimal()
	base.Data = DataSpec{Samples: 64, Classes: 4, C: 1, H: 8, W: 8}
	first := func(s Spec) []float64 {
		shards, _ := s.Dataset()
		return shards[0].Samples[0].X
	}
	ref := first(base)
	noise, split := base, base
	noise.Data.Noise = 0.4
	split.Partition = &PartitionSpec{Kind: "iid", Seed: base.Seed}
	if !slices.Equal(first(noise), ref) || !slices.Equal(first(split), ref) {
		t.Fatal("data.noise 0.4 or partition.seed equal to the spec seed moved the data")
	}
	noise.Data.Noise = 0.35
	split.Partition = &PartitionSpec{Kind: "iid", Seed: base.Seed + 1}
	if slices.Equal(first(noise), ref) || slices.Equal(first(split), ref) {
		t.Fatal("data.noise or partition.seed set to a new value and the data did not move")
	}
}

// TestClone pins the deep copy: mutating every shared block of a clone must
// leave the original untouched (the campaign grid expansion relies on it).
func TestClone(t *testing.T) {
	orig := minimal()
	orig.Algo, orig.Compression = "saps", 10
	orig.Bandwidth = BandwidthSpec{Kind: "matrix", Matrix: [][]float64{{0, 1, 1, 1}, {1, 0, 1, 1}, {1, 1, 0, 1}, {1, 1, 1, 0}}}
	orig.Gossip = &GossipSpec{BThres: 1, TThres: 5}
	orig.Churn = &ChurnSpec{LeaveProb: 0.1, JoinProb: 0.5, MinActive: 2}
	orig.Straggler = &StragglerSpec{Fraction: 0.25, Slowdown: 2}
	orig.Partition = &PartitionSpec{Kind: "dirichlet", Alpha: 0.3, MinPerNode: 2}
	clone := orig.Clone()
	clone.Rounds = 99
	clone.Model.Hidden[0] = 77
	clone.Bandwidth.Matrix[0][1] = 42
	clone.Gossip.TThres = 42
	clone.Churn.MinActive = 3
	clone.Straggler.Slowdown = 9
	clone.Partition.Alpha = 7
	if orig.Rounds == 99 || orig.Model.Hidden[0] == 77 || orig.Bandwidth.Matrix[0][1] == 42 ||
		orig.Gossip.TThres == 42 || orig.Churn.MinActive == 3 || orig.Straggler.Slowdown == 9 ||
		orig.Partition.Alpha == 7 {
		t.Fatalf("clone shares state with the original: %+v", orig)
	}
	traced := minimal()
	traced.Algo, traced.Compression = "saps", 10
	traced.Trace = &TraceSpec{File: "traces/edge.csv", Events: true}
	traced.SetDir("testdata")
	tclone := traced.Clone()
	tclone.Trace.Events = false
	tclone.Trace.File = "other.csv"
	if !traced.Trace.Events || traced.Trace.File != "traces/edge.csv" {
		t.Fatalf("trace block shared between clone and original")
	}
	if tclone.TracePath() != filepath.Join("testdata", "other.csv") {
		t.Fatalf("clone lost the spec directory: %q", tclone.TracePath())
	}
	img := minimal()
	img.Model = ModelSpec{Arch: "resnet", Width: 0.5, Blocks: 1}
	img.Data = DataSpec{Samples: 64, Classes: 4, C: 3, H: 8, W: 8, Valid: 16, Seed: 5}
	iclone := img.Clone()
	want, _ := img.Canonical()
	if got, _ := iclone.Canonical(); !bytes.Equal(got, want) {
		t.Fatalf("clone dropped workload fields:\n%s\nvs\n%s", got, want)
	}
	reparsed, err := Parse(want)
	if err != nil {
		t.Fatalf("canonical form of the image vocabulary does not parse: %v", err)
	}
	if reparsed.Model.Arch != "resnet" || reparsed.Model.Blocks != 1 || reparsed.Data.Valid != 16 || reparsed.Data.Seed != 5 || reparsed.Data.C != 3 {
		t.Fatalf("canonical form lost workload fields: %+v %+v", reparsed.Model, reparsed.Data)
	}
	iclone.Data.Valid, iclone.Model.Width = 8, 1
	if img.Data.Valid != 16 || img.Model.Width != 0.5 {
		t.Fatalf("workload blocks shared between clone and original")
	}
	fault := minimal()
	fault.Algo, fault.Compression, fault.Rounds = "saps", 10, 6
	fault.Faults = &FaultsSpec{
		Crashes:   []CrashSpec{{Rank: 1, Round: 1, RejoinAfter: 2}},
		Mortality: &MortalitySpec{Prob: 0.01, MinAlive: 3},
	}
	fclone := fault.Clone()
	fclone.Faults.Crashes[0].Round = 4
	fclone.Faults.Mortality.MinAlive = 2
	if fault.Faults.Crashes[0].Round == 4 || fault.Faults.Mortality.MinAlive == 2 {
		t.Fatalf("fault blocks shared between clone and original")
	}
}

// TestRunChurnScenario smoke-tests the churn path end to end on the sharded
// runtime (14-city SAPS with leave/rejoin).
func TestRunChurnScenario(t *testing.T) {
	spec, err := Load(filepath.Join("testdata", "saps-cities-churn.json"))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := spec.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := spec.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.TotalBytes != sharded.TotalBytes || serial.FinalLoss != sharded.FinalLoss {
		t.Fatalf("churn scenario diverged: serial %d B loss %v, sharded %d B loss %v",
			serial.TotalBytes, serial.FinalLoss, sharded.TotalBytes, sharded.FinalLoss)
	}
	if serial.TotalBytes == 0 {
		t.Fatal("churn scenario moved no bytes")
	}
}
