// Command asyncsim runs one asynchronous scenario on the event-driven
// engine and writes its determinism artifacts: the virtual-time event log
// (byte-exact text and CSV forms), the final per-rank model bits, and the
// per-rank byte ledger. Every artifact is a pure function of the spec —
// bit-reproducible regardless of GOMAXPROCS, the Go scheduler, or -race —
// which is exactly what the async-determinism CI job replays and compares:
//
//	asyncsim -spec internal/scenario/testdata/adpsgd-async.json -out run1
//	asyncsim -spec internal/scenario/testdata/adpsgd-async.json -out run2
//	cmp run1/events.log run2/events.log   # byte-identical, always
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sapspsgd/internal/obs"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/tensor"
)

var (
	flagSpec = flag.String("spec", "", "asynchronous scenario spec (required; algo adpsgd or gradpush)")
	flagOut  = flag.String("out", "asyncsim-out", "artifact output directory")
	obsFlags obs.FlagConfig
)

// ledgerFile is the deterministic ledger.json artifact: every field is a
// pure function of the spec (no wall timings).
type ledgerFile struct {
	Name       string  `json:"name"`
	Algo       string  `json:"algo"`
	Nodes      int     `json:"nodes"`
	Steps      int     `json:"steps"`
	TotalBytes int64   `json:"total_bytes"`
	SimSeconds float64 `json:"sim_seconds"`
	FinalLoss  float64 `json:"final_loss"`
	SentBytes  []int64 `json:"sent_bytes"`
	RecvBytes  []int64 `json:"recv_bytes"`
}

func main() {
	obsFlags.AddFlags(nil)
	flag.Parse()
	obsSrv, err := obsFlags.Start()
	if err == nil {
		err = run()
	}
	obsSrv.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "asyncsim:", err)
		os.Exit(1)
	}
}

func run() error {
	if *flagSpec == "" {
		return fmt.Errorf("missing -spec")
	}
	spec, err := scenario.Load(*flagSpec)
	if err != nil {
		return err
	}
	if spec.Async == nil {
		return fmt.Errorf("%s: not an asynchronous scenario (no async block)", *flagSpec)
	}
	if err := os.MkdirAll(*flagOut, 0o755); err != nil {
		return err
	}
	out, err := spec.RunFull(scenario.RunOptions{Events: true, Params: true})
	if err != nil {
		return err
	}

	// events.log: the canonical byte-exact event stream (hex float bits).
	if err := os.WriteFile(filepath.Join(*flagOut, "events.log"), out.Events.Bytes(), 0o644); err != nil {
		return err
	}
	// events.csv: the human-readable view (decimal and bit time columns).
	csv, err := os.Create(filepath.Join(*flagOut, "events.csv"))
	if err != nil {
		return err
	}
	if err := out.Events.WriteCSV(csv); err != nil {
		csv.Close()
		return err
	}
	if err := csv.Close(); err != nil {
		return err
	}
	// model.bin: every rank's final parameters as little-endian float64
	// bits, rank-major.
	var bin []byte
	for _, params := range out.Params {
		bin = tensor.AppendWords(bin, params)
	}
	if err := os.WriteFile(filepath.Join(*flagOut, "model.bin"), bin, 0o644); err != nil {
		return err
	}
	// ledger.json: the deterministic byte and virtual-time totals.
	led := ledgerFile{
		Name:       spec.Name,
		Algo:       spec.Algo,
		Nodes:      spec.Nodes,
		Steps:      spec.Rounds,
		TotalBytes: out.Result.TotalBytes,
		SimSeconds: out.Result.SimSeconds,
		FinalLoss:  out.Result.FinalLoss,
		SentBytes:  out.SentBytes,
		RecvBytes:  out.RecvBytes,
	}
	enc, err := json.MarshalIndent(&led, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*flagOut, "ledger.json"), append(enc, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("asyncsim: %s (%s, %d ranks × %d gossips) → %s: %d events, %d B traffic, sim %.3fs, loss %.4f\n",
		spec.Name, spec.Algo, spec.Nodes, spec.Rounds, *flagOut,
		out.Events.Len(), out.Result.TotalBytes, out.Result.SimSeconds, out.Result.FinalLoss)
	return nil
}
