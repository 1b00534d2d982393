// Package simtransport is the simulated-bandwidth engine backend: the same
// in-process payload hand-over as memtransport, but every exchange is
// charged against a netsim bandwidth matrix so round wall time and per-worker
// traffic reproduce the paper's simulation exactly. The *netsim.Ledger it
// returns satisfies engine.Ledger directly.
package simtransport

import (
	"sapspsgd/internal/engine/memtransport"
	"sapspsgd/internal/netsim"
)

// New returns the transport and bandwidth-accounted ledger for an engine run
// over the environment bw: pass both to engine.New / engine.Step and the run
// is charged byte-for-byte and second-for-second as in the netsim harness.
func New(bw *netsim.Bandwidth) (*memtransport.Hub, *netsim.Ledger) {
	return memtransport.NewHub(bw.N), netsim.NewLedger(bw)
}
