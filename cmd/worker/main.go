// Command worker runs one training peer (Algorithm 2) as a TCP client: it
// registers with the coordinator, receives the run's scenario spec and its
// rank, builds its own model and regenerates its data shard from the spec
// locally, and trains — exchanging sparsified models peer-to-peer each round.
//
// Fault tolerance: with -snapshot set the worker persists its committed
// round-boundary state (model, optimizer momentum, data-stream cursors,
// codec residuals) at every round boundary, rounds it sits out included.
// If the process is killed — by the coordinator's fault schedule or for
// real — restart it with the same -snapshot path plus -resume and it
// rejoins the training from the snapshot, continuing the fleet's trajectory
// bit-identically to a run where it had merely been excluded from the
// missed rounds. A fault-injected kill exits with status 3 so supervisors
// can distinguish it from errors.
package main

import (
	"errors"
	"flag"
	"log"
	"os"

	"sapspsgd/internal/transport"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "127.0.0.1:7000", "coordinator address")
		peerAddr    = flag.String("peer-addr", "127.0.0.1:0", "address to listen on for peer exchanges")
		snapshot    = flag.String("snapshot", "", "path for the round-boundary state snapshot (enables crash recovery)")
		resume      = flag.Bool("resume", false, "rejoin an in-flight training from the -snapshot file")
		quiet       = flag.Bool("quiet", false, "suppress progress logging")
	)
	flag.Parse()

	wc := &transport.WorkerClient{SnapshotPath: *snapshot, Resume: *resume}
	if !*quiet {
		wc.Logf = log.Printf
	}
	if _, err := wc.Run(*coordinator, *peerAddr); err != nil {
		if errors.Is(err, transport.ErrCrashed) {
			log.Printf("worker %d: %v", wc.Rank(), err)
			os.Exit(3)
		}
		log.Fatal(err)
	}
	log.Printf("worker %d finished", wc.Rank())
}
