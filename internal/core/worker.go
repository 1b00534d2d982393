package core

import (
	"bytes"
	"fmt"

	"sapspsgd/internal/compress"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/tensor"
)

// Worker is one SAPS-PSGD training peer (Algorithm 2). It owns a model, an
// optimizer, and a shard of the training data. It is not safe for concurrent
// use; the harness gives each goroutine its own Worker.
type Worker struct {
	Rank  int
	Model *nn.Model
	Opt   *nn.SGD
	// Loader yields this worker's local minibatches (D_p in the paper).
	Loader *dataset.Loader

	cfg Config

	flat    []float64 // scratch for the flat parameter vector
	mask    []bool    // round mask: worker scratch, or the shared cache's slice
	payload []float64 // scratch for the packed masked payload

	// masks, when set, replaces the per-worker mask scratch with a
	// fleet-shared cache (see ShareMasks).
	masks *compress.MaskCache
}

// NewWorker assembles a worker from its already-constructed model and data
// shard. All workers must be built from the same model seed so that
// ‖X₀ − X̄₀1ᵀ‖² = 0 (the paper's zero-initial-disagreement condition).
func NewWorker(rank int, model *nn.Model, shard *dataset.Dataset, cfg Config) *Worker {
	if err := cfg.validateWorker(); err != nil {
		panic(err)
	}
	return &Worker{
		Rank:   rank,
		Model:  model,
		Opt:    &nn.SGD{LR: cfg.LR},
		Loader: dataset.NewLoader(shard, cfg.Batch, cfg.Seed+uint64(rank)*7919),
		cfg:    cfg,
	}
}

// LocalSGD runs the configured number of local minibatch SGD steps
// (Algorithm 2 line 5) and returns the mean training loss.
func (w *Worker) LocalSGD() float64 {
	total := 0.0
	for s := 0; s < w.cfg.LocalSteps; s++ {
		xs, ys := w.Loader.Next()
		total += nn.TrainBatch(w.Model, w.Opt, xs, ys)
	}
	return total / float64(w.cfg.LocalSteps)
}

// ShareMasks redirects RoundMask through a fleet-shared cache: ranks hosted
// in the same process regenerate one mask per round between them instead of
// one per rank, so per-rank steady-state memory stays O(model) independent of
// how many ranks the process hosts. The mask is a pure function of
// (seed, round, n, c), so sharing is bit-invisible; the worker only ever
// reads the returned slice.
func (w *Worker) ShareMasks(mc *compress.MaskCache) { w.masks = mc }

// RoundMask regenerates the shared round mask from the coordinator's seed
// (Algorithm 2 line 6). Every worker calls this with identical arguments and
// obtains an identical mask. The mask lands in per-worker scratch (or the
// fleet-shared cache after ShareMasks), so steady-state rounds allocate
// nothing.
func (w *Worker) RoundMask(seed uint64, round int) []bool {
	n := w.Model.ParamCount()
	if w.masks != nil {
		w.mask = w.masks.Get(seed, round, n, w.cfg.Compression)
		return w.mask
	}
	w.mask = compress.MaskInto(w.mask, seed, round, n, w.cfg.Compression)
	return w.mask
}

// MaskedPayload extracts the worker's sparsified model x̃ = x ∘ m as a packed
// value slice (Algorithm 2 line 7) — the message sent to the peer. The wire
// cost is compress.MaskedBytes(len(payload)). The returned slice is scratch
// owned by the worker: it stays valid until the next MaskedPayload call,
// which under the engine's synchronous round barrier is after the peer has
// finished reading it.
func (w *Worker) MaskedPayload() []float64 {
	if w.mask == nil {
		panic("core: MaskedPayload before RoundMask")
	}
	w.flat = w.Model.FlatParams(w.flat)
	w.payload = compress.ExtractInto(w.payload, w.flat, w.mask)
	return w.payload
}

// MergePeer applies the masked gossip average of Eq. (7) with the pairwise
// doubly stochastic W: masked coordinates become the mean of the local and
// peer values; unmasked coordinates are untouched (Algorithm 2 line 10).
func (w *Worker) MergePeer(peerVals []float64) {
	if w.mask == nil {
		panic("core: MergePeer before RoundMask")
	}
	k := compress.CountOnes(w.mask)
	if len(peerVals) != k {
		panic(fmt.Sprintf("core: peer payload %d values, mask has %d", len(peerVals), k))
	}
	w.flat = w.Model.FlatParams(w.flat)
	j := 0
	for i, on := range w.mask {
		if on {
			w.flat[i] = 0.5 * (w.flat[i] + peerVals[j])
			j++
		}
	}
	w.Model.SetFlatParams(w.flat)
}

// WorkerState is a Worker's complete round-boundary state: everything a
// restarted process needs (beyond the shared config, which it re-derives
// from the task spec) to continue the trajectory bit-identically. Model is
// an nn checkpoint (parameters plus per-layer running statistics), Loader
// the minibatch stream cursor, Velocity the optimizer's momentum buffer.
type WorkerState struct {
	Model    []byte
	Loader   dataset.LoaderState
	Velocity []float64
}

// CaptureState snapshots the worker at a round boundary.
func (w *Worker) CaptureState() (WorkerState, error) {
	var buf bytes.Buffer
	if err := w.Model.Save(&buf); err != nil {
		return WorkerState{}, err
	}
	return WorkerState{
		Model:    buf.Bytes(),
		Loader:   w.Loader.State(),
		Velocity: w.Opt.Velocity(),
	}, nil
}

// RestoreState restores a snapshot captured by CaptureState into an
// identically constructed worker (same config, same shard).
func (w *Worker) RestoreState(st WorkerState) error {
	if err := w.Model.Load(bytes.NewReader(st.Model)); err != nil {
		return err
	}
	w.Loader.SetState(st.Loader)
	w.Opt.SetVelocity(st.Velocity)
	return nil
}

// PayloadLen returns the number of values the current mask transmits.
func (w *Worker) PayloadLen() int { return compress.CountOnes(w.mask) }

// ParamsScratch returns the worker's current flat parameter vector in the
// worker-owned scratch buffer (valid until the next call touching it). The
// engine's masked codec extracts the wire payload from this vector.
func (w *Worker) ParamsScratch() []float64 {
	w.flat = w.Model.FlatParams(w.flat)
	return w.flat
}

// Params returns the worker's current flat parameter vector (a copy).
func (w *Worker) Params() []float64 { return w.Model.FlatParams(nil) }

// Disagreement returns ‖x_w − ref‖₂, used by the consensus tests.
func (w *Worker) Disagreement(ref []float64) float64 {
	w.flat = w.Model.FlatParams(w.flat)
	diff := tensor.GetVecRaw(len(ref)) // fully written by Sub
	defer tensor.PutVec(diff)
	tensor.Sub(diff, w.flat, ref)
	return tensor.Norm2(diff)
}
