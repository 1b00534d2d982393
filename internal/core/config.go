// Package core implements SAPS-PSGD itself: the worker update of
// Algorithm 2 — a Trainer (local SGD on the rank's shard, the one step every
// comparator's node shares and checkpoints through) under a Worker's
// shared-seed sparsification and single-peer masked gossip averaging — and
// the coordinator of Algorithm 1 (per-round gossip matrix generation with
// adaptive peer selection, mask-seed broadcast, round barriers). The same
// worker logic runs in-process for the experiment harness and over TCP for
// the deployable system (internal/transport, cmd/coordinator, cmd/worker).
package core

import (
	"fmt"

	"sapspsgd/internal/gossip"
)

// Config collects the SAPS-PSGD hyperparameters of Algorithms 1–3.
type Config struct {
	// Workers is the number of training peers n.
	Workers int
	// Compression is the ratio c: each round a worker transmits ~N/c model
	// coordinates (mask keep-probability 1/c). The paper uses c = 100.
	Compression float64
	// LR is the SGD learning rate γ.
	LR float64
	// Batch is the local minibatch size.
	Batch int
	// LocalSteps is the number of local SGD steps per communication round
	// (1 in the paper's algorithm).
	LocalSteps int
	// Gossip carries Algorithm 3's BThres/TThres knobs.
	Gossip gossip.Config
	// Seed drives all deterministic randomness (masks, matchings, init).
	Seed uint64
}

// Validate returns an error describing the first invalid field, if any.
func (c Config) Validate() error {
	switch {
	case c.Workers < 2:
		return fmt.Errorf("core: need at least 2 workers, got %d", c.Workers)
	case c.Compression < 1:
		return fmt.Errorf("core: compression ratio %v < 1", c.Compression)
	case c.LR <= 0:
		return fmt.Errorf("core: learning rate %v <= 0", c.LR)
	case c.Batch < 1:
		return fmt.Errorf("core: batch %d < 1", c.Batch)
	case c.LocalSteps < 1:
		return fmt.Errorf("core: local steps %d < 1", c.LocalSteps)
	case c.Gossip.TThres < 1:
		return fmt.Errorf("core: TThres %d < 1", c.Gossip.TThres)
	}
	return nil
}
