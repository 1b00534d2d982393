package algos

import (
	"fmt"

	"sapspsgd/internal/engine"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/tensor"
)

// Every baseline node is engine.Stateful, so any recipe algorithm can be
// checkpointed at a round boundary and resumed bit-identically: model
// parameters (plus normalization running statistics), optimizer momentum, and
// minibatch-stream RNG cursors all ride in the snapshot. A node that embeds
// its core.Trainer and carries nothing else across a boundary (gradAvgNode,
// neighborMixNode, psWorkerNode) gets the trainer's methods as they stand, a
// hub server embeds serverModel, and this file holds the two nodes that
// really add state behind the trainer's in the same blob. Codec-side state
// (error-feedback residuals, quantizer RNG) is captured by the codecs
// themselves (see internal/engine/codec.go).

// AppendState implements engine.Stateful: the trainer's state, then
// the public replicas in ascending rank order — they evolve by lossy deltas
// and cannot be reconstructed from the model alone.
func (n *dcdNode) AppendState(dst []byte) ([]byte, error) {
	size := n.StateSize()
	for _, e := range n.row {
		size += tensor.SectionSize(8 * len(e.replica))
	}
	b, err := n.Trainer.AppendState(tensor.Grow(dst, size))
	if err != nil {
		return nil, err
	}
	for _, e := range n.row {
		b = tensor.AppendVector(b, e.replica)
	}
	return b, nil
}

// RestoreState implements engine.Stateful.
func (n *dcdNode) RestoreState(data []byte) error {
	b, err := n.ReadState(data)
	if err != nil {
		return err
	}
	for _, e := range n.row {
		var sec []byte
		if sec, b, err = tensor.CutSection(b); err != nil {
			return fmt.Errorf("algos: dcd replica of rank %d: %w", e.rank, err)
		}
		if err := tensor.DecodeWords(e.replica, sec); err != nil {
			return fmt.Errorf("algos: dcd replica of rank %d: %w", e.rank, err)
		}
	}
	return tensor.NoMoreSections(b)
}

// AppendState implements engine.Stateful: the trainer's state, then
// the last pulled server model — S-FedAvg's delta upload is relative to it,
// so a worker restored mid-schedule must remember it.
func (f *fedWorkerNode) AppendState(dst []byte) ([]byte, error) {
	b, err := f.Trainer.AppendState(tensor.Grow(dst, f.StateSize()+tensor.SectionSize(8*len(f.pulled))))
	if err != nil {
		return nil, err
	}
	return tensor.AppendVector(b, f.pulled), nil
}

// RestoreState implements engine.Stateful.
func (f *fedWorkerNode) RestoreState(data []byte) error {
	b, err := f.ReadState(data)
	if err != nil {
		return err
	}
	sec, b, err := tensor.CutSection(b)
	if err != nil {
		return err
	}
	pulled, err := tensor.Words(sec)
	if err != nil {
		return err
	}
	f.pulled = append(f.pulled[:0], pulled...)
	return tensor.NoMoreSections(b)
}

// serverModel is a hub server's round-boundary state, the global model's nn
// checkpoint; both server nodes embed it.
type serverModel struct {
	model *nn.Model
}

// AppendState implements engine.Stateful.
func (s serverModel) AppendState(dst []byte) ([]byte, error) {
	return s.model.AppendCheckpoint(tensor.Grow(dst, s.model.CheckpointSize())), nil
}

// RestoreState implements engine.Stateful.
func (s serverModel) RestoreState(data []byte) error { return s.model.LoadCheckpoint(data) }

// Compile-time checks: every baseline node supports checkpointing.
var (
	_ engine.Stateful = (*gradAvgNode)(nil)
	_ engine.Stateful = (*neighborMixNode)(nil)
	_ engine.Stateful = (*dcdNode)(nil)
	_ engine.Stateful = (*psWorkerNode)(nil)
	_ engine.Stateful = (*fedWorkerNode)(nil)
	_ engine.Stateful = (*psServerNode)(nil)
	_ engine.Stateful = (*fedServerNode)(nil)
)
