package core

import (
	"fmt"

	"sapspsgd/internal/compress"
)

// Worker is one SAPS-PSGD training peer (Algorithm 2): a Trainer plus the
// shared-seed mask handle that sparsifies what it gossips. It is not safe
// for concurrent use; the harness gives each goroutine its own Worker.
type Worker struct {
	*Trainer

	compression float64
	localSteps  int

	mask []int32 // round mask positions: worker scratch, or the shared cache's slice

	// masks, when set, replaces the per-worker mask scratch with a
	// fleet-shared cache (see ShareMasks).
	masks *compress.MaskCache
}

// NewWorker puts the mask handle on a trainer: compression is the ratio c
// (mask keep-probability 1/c), localSteps the local SGD steps per round —
// Algorithm 2's two knobs beyond the trainer's own.
func NewWorker(t *Trainer, compression float64, localSteps int) *Worker {
	switch {
	case compression < 1:
		panic(fmt.Sprintf("core: compression ratio %v < 1", compression))
	case localSteps < 1:
		panic(fmt.Sprintf("core: local steps %d < 1", localSteps))
	}
	return &Worker{Trainer: t, compression: compression, localSteps: localSteps}
}

// LocalSGD runs the configured number of local minibatch SGD steps
// (Algorithm 2 line 5) and returns the mean training loss.
func (w *Worker) LocalSGD() float64 { return w.Trainer.LocalSGD(w.localSteps) }

// ShareMasks redirects RoundMask through a fleet-shared cache: ranks hosted
// in the same process regenerate one mask per round between them instead of
// one per rank, so per-rank steady-state memory stays O(model) independent of
// how many ranks the process hosts. The mask is a pure function of
// (seed, round, n, c), so sharing is bit-invisible; the worker only ever
// reads the returned slice.
func (w *Worker) ShareMasks(mc *compress.MaskCache) { w.masks = mc }

// RoundMask regenerates the shared round mask from the coordinator's seed
// (Algorithm 2 line 6) as the ascending positions of its ones. Every worker
// calls this with identical arguments and obtains an identical mask. The
// positions land in per-worker scratch (or the fleet-shared cache after
// ShareMasks), so steady-state rounds allocate nothing.
func (w *Worker) RoundMask(seed uint64, round int) []int32 {
	n := w.Model.ParamCount()
	if w.masks != nil {
		w.mask = w.masks.Get(seed, round, n, w.compression)
		return w.mask
	}
	w.mask = compress.MaskIndices(w.mask, seed, round, n, w.compression)
	return w.mask
}

// MergePeer applies the masked gossip average of Eq. (7) with the pairwise
// doubly stochastic W, in place: masked coordinates become the mean of the
// local and peer values; unmasked coordinates are untouched (Algorithm 2
// line 10). A payload whose length is not the mask's count came off the
// wire malformed: it is an error, and the model is left as it was.
func (w *Worker) MergePeer(peerVals []float64) error {
	if w.mask == nil {
		panic("core: MergePeer before RoundMask")
	}
	if len(peerVals) != len(w.mask) {
		return fmt.Errorf("core: peer payload %d values, mask has %d", len(peerVals), len(w.mask))
	}
	x, _ := w.Model.Flat()
	for j, i := range w.mask {
		x[i] = 0.5 * (x[i] + peerVals[j])
	}
	return nil
}
