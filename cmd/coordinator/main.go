// Command coordinator runs the training coordinator (Algorithm 1) of a
// scenario spec as a TCP server: it registers the spec's worker processes,
// drives its rounds of control broadcasts (adaptive peer selection + mask
// seed for SAPS; participation sampling for the federated schemes), and
// writes the collected final model to -out (the parameters as raw
// little-endian float64 words, tensor.AppendWords).
//
// The spec is the whole run, exactly as cmd/campaign reads it: algorithm,
// fleet size, model, data, rounds, bandwidth environment (jitter included),
// and the faults and trace blocks. Each worker receives its canonical bytes
// at registration and builds its own rank from them. Asynchronous,
// planner_only and churn specs are refused before the first worker
// registers. Example (the spec's nodes + 1 terminals):
//
//	coordinator -spec internal/scenario/testdata/saps-jitter.json -addr 127.0.0.1:7000
//	worker -coordinator 127.0.0.1:7000   # once per node
//
// Hub algorithms (ps-psgd, fedavg, s-fedavg) need one extra worker process:
// the last registered rank becomes the parameter server. A faults block makes
// the coordinator kill the scheduled worker processes at their round
// boundaries and hold each rejoin boundary up to -rejoin-wait for the
// restarted worker (cmd/worker -resume). Unscheduled worker losses are
// detected, the affected round is aborted and rolled back on every survivor,
// and training re-plans over the remaining fleet.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"sapspsgd/internal/engine"
	"sapspsgd/internal/obs"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/tensor"
	"sapspsgd/internal/transport"
)

func main() {
	var (
		specPath   = flag.String("spec", "", "scenario spec file to run (required)")
		addr       = flag.String("addr", "127.0.0.1:7000", "listen address")
		measure    = flag.Bool("measure", false, "probe pairwise worker bandwidth before training and plan over it (paper §II-C fn.3)")
		probeKB    = flag.Int("probe-kb", 64, "probe payload size in KiB when -measure is set")
		rejoinWait = flag.Duration("rejoin-wait", time.Minute, "how long to hold a round boundary for a scheduled rejoiner")
		out        = flag.String("out", "model.bin", "output file for the final model (little-endian float64 words)")
	)
	var obsFlags obs.FlagConfig
	obsFlags.AddFlags(nil)
	flag.Parse()
	if err := run(*specPath, *addr, *measure, *probeKB, *rejoinWait, *out, &obsFlags); err != nil {
		log.Fatal(err)
	}
}

func run(specPath, addr string, measure bool, probeKB int, rejoinWait time.Duration, out string, obsFlags *obs.FlagConfig) error {
	if specPath == "" {
		return fmt.Errorf("-spec is required")
	}
	spec, err := scenario.Load(specPath)
	if err != nil {
		return err
	}
	// An unwritable -out fails before anyone registers, not after the run.
	if err := engine.CheckCommit(out); err != nil {
		return fmt.Errorf("-out: %w", err)
	}

	// The observability sink must be live before the server is constructed:
	// components capture their metric bundles at construction time.
	obsSrv, err := obsFlags.Start()
	if err != nil {
		return err
	}
	defer obsSrv.Close()
	if obsSrv != nil {
		log.Printf("observability server on %s (/metrics, /healthz, /runs, /debug/pprof)", obsSrv.Addr)
	}

	led := &engine.CountingLedger{}
	srv := &transport.CoordinatorServer{
		Spec:       spec,
		Measure:    measure,
		ProbeBytes: probeKB << 10,
		Ledger:     led,
		RejoinWait: rejoinWait,
		Logf:       log.Printf,
	}
	if _, err := srv.Listen(addr); err != nil {
		return err
	}
	params, err := srv.Run()
	if err != nil {
		return err
	}
	log.Printf("total measured traffic: %.2f MB over %d rounds", float64(led.TotalBytes())/1e6, led.Rounds())
	if err := engine.CommitFile(out, tensor.AppendWords(nil, params)); err != nil {
		return err
	}
	fmt.Printf("final model (%d parameters) written to %s\n", len(params), out)
	return nil
}
