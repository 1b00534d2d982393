package core

import (
	"bytes"
	"encoding/gob"

	"sapspsgd/internal/dataset"
	"sapspsgd/internal/nn"
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

// TrainerState is a Trainer's complete round-boundary state: everything a
// restarted process needs (beyond the recipe, which it re-derives from the
// task spec) to continue the trajectory bit-identically. Model is an nn
// checkpoint (parameters plus per-layer running statistics), Loader the
// minibatch stream cursor, Velocity the optimizer's momentum buffer. The
// field names are the snapshot format: gob matches them by name.
type TrainerState struct {
	Model    []byte
	Loader   dataset.LoaderState
	Velocity []float64
}

// State snapshots the trainer at a round boundary.
func (t *Trainer) State() (TrainerState, error) {
	var buf bytes.Buffer
	if err := t.Model.Save(&buf); err != nil {
		return TrainerState{}, err
	}
	return TrainerState{
		Model:    buf.Bytes(),
		Loader:   t.Loader.State(),
		Velocity: t.Opt.Velocity(),
	}, nil
}

// SetState restores a snapshot taken by State into an identically
// constructed trainer (same recipe, same shard).
func (t *Trainer) SetState(st TrainerState) error {
	if err := t.Model.Load(bytes.NewReader(st.Model)); err != nil {
		return err
	}
	t.Loader.SetState(st.Loader)
	t.Opt.SetVelocity(st.Velocity)
	return nil
}

// CaptureState is State as a gob blob. With RestoreState it is the engine's
// Stateful contract, so a node that embeds its trainer and adds no state of
// its own can be checkpointed as it stands.
func (t *Trainer) CaptureState() ([]byte, error) {
	st, err := t.State()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreState restores a blob written by CaptureState.
func (t *Trainer) RestoreState(data []byte) error {
	var st TrainerState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	return t.SetState(st)
}
