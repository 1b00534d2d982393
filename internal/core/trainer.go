package core

import (
	"fmt"

	"sapspsgd/internal/dataset"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/tensor"
)

// Trainer is one rank's local training state — Algorithm 2 line 5's "local
// SGD on D_p", which SAPS-PSGD shares with every comparator: a model, its
// optimizer, and the minibatch stream over the rank's data shard. What a
// rank exchanges afterwards is the node's business. It is not safe for
// concurrent use.
type Trainer struct {
	Model *nn.Model
	Opt   *nn.SGD
	// Loader yields this rank's local minibatches (D_p in the paper).
	Loader *dataset.Loader
}

// NewTrainer assembles a rank's training state over its already-constructed
// model and data shard. All ranks must be built from the same model seed so
// that ‖X₀ − X̄₀1ᵀ‖² = 0 (the paper's zero-initial-disagreement condition).
// loaderSeed is the rank's minibatch stream: a pure function of (fleet seed,
// rank), so in-process and TCP runs draw identical batches.
func NewTrainer(model *nn.Model, shard *dataset.Dataset, batch int, lr float64, loaderSeed uint64) *Trainer {
	return &Trainer{
		Model:  model,
		Opt:    &nn.SGD{LR: lr},
		Loader: dataset.NewLoader(shard, batch, loaderSeed),
	}
}

// GradStep computes gradients on the next minibatch without applying them.
func (t *Trainer) GradStep() float64 {
	xs, ys := t.Loader.Next()
	return nn.ComputeGrads(t.Model, xs, ys)
}

// LocalSGD runs steps local minibatch SGD steps and returns the mean training
// loss.
func (t *Trainer) LocalSGD(steps int) float64 {
	total := 0.0
	for s := 0; s < steps; s++ {
		xs, ys := t.Loader.Next()
		total += nn.TrainBatch(t.Model, t.Opt, xs, ys)
	}
	return total / float64(steps)
}

// A trainer's round-boundary state is everything a restarted process needs
// (beyond the recipe, which it re-derives from the task spec) to continue the
// trajectory bit-identically, as two tensor sections in a row: the nn
// checkpoint (parameters plus per-layer running statistics, raw words) and
// the minibatch stream cursor (dataset.LoaderState's fixed words: the
// shuffle RNG, sample count, position and epoch). Plain SGD keeps no state
// of its own.

// StateSize is the number of bytes AppendState appends.
func (t *Trainer) StateSize() int {
	return tensor.SectionSize(t.Model.CheckpointSize()) + tensor.SectionSize(dataset.LoaderStateSize)
}

// AppendState appends the trainer's state to dst, growing it at most once.
// The parameters are copied once, from the layers into the blob. A node that
// carries state of its own grows dst for both before it calls this, and
// appends its part behind the trainer's.
func (t *Trainer) AppendState(dst []byte) ([]byte, error) {
	dst = tensor.Grow(dst, t.StateSize())
	dst = t.Model.AppendCheckpoint(tensor.BeginSection(dst, t.Model.CheckpointSize()))
	return t.Loader.State().AppendTo(tensor.BeginSection(dst, dataset.LoaderStateSize)), nil
}

// ReadState restores the state AppendState wrote at the front of b into an
// identically constructed trainer (same recipe, same shard) and returns what
// follows it. Every section is checked before the model is written: a state
// whose loader cursor does not fit this trainer's shard leaves the model as
// it was.
func (t *Trainer) ReadState(b []byte) (rest []byte, err error) {
	model, b, err := tensor.CutSection(b)
	if err != nil {
		return nil, err
	}
	loader, rest, err := tensor.CutSection(b)
	if err != nil {
		return nil, err
	}
	if err := t.Loader.ReadState(loader); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := t.Model.LoadCheckpoint(model); err != nil {
		return nil, err
	}
	return rest, nil
}

// RestoreState restores a blob written by AppendState. With AppendState it
// is the engine's Stateful contract, so a node that embeds its trainer and
// adds no state of its own can be checkpointed as it stands.
func (t *Trainer) RestoreState(data []byte) error {
	rest, err := t.ReadState(data)
	if err != nil {
		return err
	}
	return tensor.NoMoreSections(rest)
}
