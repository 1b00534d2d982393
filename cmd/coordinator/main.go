// Command coordinator runs the training coordinator (Algorithm 1) as a TCP
// server for any of the paper's algorithms: it registers the task's worker
// processes, drives -rounds communication rounds of control broadcasts
// (adaptive peer selection + mask seed for SAPS; participation sampling for
// the federated schemes), and writes the collected final model to -out
// (the parameters as raw little-endian float64 words, tensor.AppendWords).
//
// Example (six terminals):
//
//	coordinator -addr 127.0.0.1:7000 -n 4 -rounds 100 -arch mnist-cnn
//	worker -coordinator 127.0.0.1:7000   # ×4
//
// Hub algorithms (-algo ps-psgd|fedavg|s-fedavg) need one extra worker
// process: the last registered rank becomes the parameter server.
//
// Fault injection (-algo saps): -crash "2:30:10" kills the rank-2 worker
// process at the round-30 boundary and re-admits it 10 rounds later (the
// worker must be restarted with -resume; the coordinator holds the boundary
// up to -rejoin-wait for its handshake). -mortality "0.01:4" adds seeded
// random permanent deaths down to a floor of 4 workers. Unscheduled worker
// losses are detected, the affected round is aborted and rolled back on
// every survivor, and training re-plans over the remaining fleet.
//
// Trace replay (DESIGN.md §11): -trace fleet.csv replays a committed
// per-node bandwidth-multiplier trace over the environment (configured or
// -measure'd); -trace-events additionally replays its join/leave events as
// scripted membership (saps only — absent workers stay connected but sit
// rounds out, exactly as the simulated backends exclude them).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/fleettrace"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/obs"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
	"sapspsgd/internal/transport"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7000", "listen address")
		n           = flag.Int("n", 4, "number of trainer workers")
		rounds      = flag.Int("rounds", 100, "communication rounds T")
		algo        = flag.String("algo", "saps", "algorithm: "+strings.Join(algos.AlgoNames, "|"))
		arch        = flag.String("arch", "mnist-cnn", "model: mlp|mnist-cnn|cifar-cnn|resnet")
		width       = flag.Float64("width", 0.25, "model width multiplier")
		size        = flag.Int("size", 16, "input spatial size (divisible by 4)")
		channels    = flag.Int("channels", 1, "input channels")
		classes     = flag.Int("classes", 10, "classes")
		samples     = flag.Int("samples", 2048, "total training samples")
		lr          = flag.Float64("lr", 0.05, "learning rate")
		batch       = flag.Int("batch", 16, "batch size")
		compression = flag.Float64("c", 100, "SAPS mask compression ratio c")
		algoC       = flag.Float64("algo-c", 100, "sparsifier ratio for topk-psgd/dcd-psgd/s-fedavg")
		levels      = flag.Int("qsgd-levels", 4, "QSGD quantization levels")
		fraction    = flag.Float64("fraction", 0.5, "FedAvg participation fraction")
		localSteps  = flag.Int("local-steps", 1, "local SGD steps per round")
		nonIID      = flag.Bool("non-iid", false, "label-sharded non-IID partition")
		seed        = flag.Uint64("seed", 1, "global seed")
		bthres      = flag.Float64("bthres", 0, "bandwidth threshold B_thres (MB/s)")
		tthres      = flag.Int("tthres", 10, "recency window T_thres (rounds)")
		measure     = flag.Bool("measure", false, "probe pairwise worker bandwidth before training (paper §II-C fn.3)")
		probeKB     = flag.Int("probe-kb", 64, "probe payload size in KiB when -measure is set")
		crash       = flag.String("crash", "", "fault injection (saps only): comma-separated rank:round[:rejoin_after] crash events, e.g. 2:30:10,5:40")
		mortality   = flag.String("mortality", "", "fault injection (saps only): prob:min_alive seeded random permanent worker deaths, e.g. 0.01:4")
		traceFile   = flag.String("trace", "", "fleet trace CSV to replay (per-round bandwidth multipliers; see internal/fleettrace)")
		traceInterp = flag.String("trace-interp", "hold", "trace multiplier interpolation: hold|linear")
		traceEvents = flag.Bool("trace-events", false, "replay the trace's join/leave membership events (saps only)")
		rejoinWait  = flag.Duration("rejoin-wait", time.Minute, "how long to hold a round boundary for a scheduled rejoiner")
		out         = flag.String("out", "model.bin", "output file for the final model (little-endian float64 words)")
	)
	var obsFlags obs.FlagConfig
	obsFlags.AddFlags(nil)
	flag.Parse()

	// The observability sink must be live before the server is constructed:
	// components capture their metric bundles at construction time.
	obsSrv, err := obsFlags.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer obsSrv.Close()
	if obsSrv != nil {
		log.Printf("observability server on %s (/metrics, /healthz, /runs, /debug/pprof)", obsSrv.Addr)
	}

	faults, err := parseFaults(*crash, *mortality, *n, *seed)
	if err != nil {
		log.Fatal(err)
	}
	replay, err := parseTrace(*traceFile, *traceInterp, *n)
	if err != nil {
		log.Fatal(err)
	}
	if *traceEvents && replay == nil {
		log.Fatal("-trace-events requires -trace")
	}

	spec := transport.TaskSpec{
		Arch: *arch, C: *channels, H: *size, W: *size, Classes: *classes,
		Width: *width, Hidden: []int{64}, Samples: *samples, DataSeed: *seed + 100,
		NonIID: *nonIID, LR: *lr, Batch: *batch, Compression: *compression,
		LocalSteps: *localSteps, Rounds: *rounds, Seed: *seed,
		Algo: *algo, AlgoC: *algoC, QLevels: *levels, Fraction: *fraction,
	}
	rec := spec.Recipe(*n)
	if err := rec.Validate(); err != nil {
		log.Fatal(err)
	}
	srv := &transport.CoordinatorServer{
		N:    *n,
		Task: spec,
		// Without real link measurements, the coordinator assumes a random
		// uniform environment; in production each worker pair would report
		// measured speeds (paper §II-C footnote 3).
		BW:           netsim.RandomUniform(rec.Nodes(), 1, 5, rng.New(*seed)),
		Measure:      *measure,
		ProbeBytes:   *probeKB << 10,
		Gossip:       gossip.Config{BThres: *bthres, TThres: *tthres},
		Faults:       faults,
		Replay:       replay,
		ReplayEvents: *traceEvents,
		RejoinWait:   *rejoinWait,
		Logf:         log.Printf,
	}
	led := &engine.CountingLedger{}
	srv.Ledger = led
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("coordinator listening on %s: algorithm %q, waiting for %d worker processes (%d trainers%s)",
		bound, rec.Algo, rec.Nodes(), *n, serverNote(rec))
	params, err := srv.Run()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("total measured traffic: %.2f MB over %d rounds", float64(led.TotalBytes())/1e6, led.Rounds())
	if err := os.WriteFile(*out, tensor.AppendWords(nil, params), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final model (%d parameters) written to %s\n", len(params), *out)
}

func serverNote(rec algos.Recipe) string {
	if rec.Hub() {
		return " + 1 parameter server"
	}
	return ""
}

// parseTrace loads and binds the -trace replay for the fleet size. An empty
// path returns nil.
func parseTrace(path, interpName string, n int) (*fleettrace.Replay, error) {
	if path == "" {
		return nil, nil
	}
	tr, err := fleettrace.ParseFile(path)
	if err != nil {
		return nil, err
	}
	interp, err := fleettrace.ParseInterp(interpName)
	if err != nil {
		return nil, fmt.Errorf("-trace-interp: %v", err)
	}
	return fleettrace.NewReplay(tr, n, interp)
}

// parseFaults builds the fault schedule from the -crash and -mortality
// flags. Crash events are rank:round[:rejoin_after]; mortality is
// prob:min_alive. An empty schedule returns nil.
func parseFaults(crash, mortality string, n int, seed uint64) (*algos.FaultSchedule, error) {
	if crash == "" && mortality == "" {
		return nil, nil
	}
	sched := &algos.FaultSchedule{N: n, Seed: seed}
	if crash != "" {
		for _, part := range strings.Split(crash, ",") {
			fields := strings.Split(strings.TrimSpace(part), ":")
			if len(fields) != 2 && len(fields) != 3 {
				return nil, fmt.Errorf("bad -crash event %q, want rank:round[:rejoin_after]", part)
			}
			var ev algos.FaultEvent
			var err error
			if ev.Rank, err = strconv.Atoi(fields[0]); err != nil {
				return nil, fmt.Errorf("bad -crash rank in %q: %v", part, err)
			}
			if ev.Round, err = strconv.Atoi(fields[1]); err != nil {
				return nil, fmt.Errorf("bad -crash round in %q: %v", part, err)
			}
			if len(fields) == 3 {
				if ev.RejoinAfter, err = strconv.Atoi(fields[2]); err != nil {
					return nil, fmt.Errorf("bad -crash rejoin_after in %q: %v", part, err)
				}
			}
			sched.Events = append(sched.Events, ev)
		}
	}
	if mortality != "" {
		fields := strings.Split(mortality, ":")
		if len(fields) != 2 {
			return nil, fmt.Errorf("bad -mortality %q, want prob:min_alive", mortality)
		}
		prob, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("bad -mortality prob: %v", err)
		}
		minAlive, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("bad -mortality min_alive: %v", err)
		}
		sched.Mortality = &algos.FaultMortality{Prob: prob, MinAlive: minAlive}
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	return sched, nil
}
