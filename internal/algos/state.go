package algos

import (
	"bytes"
	"encoding/gob"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/nn"
)

// Every baseline node is engine.Stateful, so any recipe algorithm can be
// checkpointed at a round boundary and resumed bit-identically: model
// parameters (plus normalization running statistics), optimizer momentum, and
// minibatch-stream RNG cursors all ride in the snapshot. A node that embeds
// its core.Trainer and carries nothing else across a boundary (gradAvgNode,
// neighborMixNode, psWorkerNode) gets the trainer's pair as it stands, a hub
// server embeds serverModel, and this file holds the two nodes that really
// add state. Codec-side state (error-feedback residuals, quantizer RNG) is
// captured by the codecs themselves (see internal/engine/codec.go).

func blob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func unblob(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// dcdState adds the public replicas to the trainer state — they evolve by
// lossy deltas and cannot be reconstructed from the model alone.
type dcdState struct {
	Trainer  core.TrainerState
	Replicas map[int][]float64
}

// CaptureState implements engine.Stateful.
func (n *dcdNode) CaptureState() ([]byte, error) {
	ts, err := n.State()
	if err != nil {
		return nil, err
	}
	st := dcdState{Trainer: ts, Replicas: map[int][]float64{}}
	for j, r := range n.replicas {
		st.Replicas[j] = append([]float64(nil), r...)
	}
	return blob(st)
}

// RestoreState implements engine.Stateful.
func (n *dcdNode) RestoreState(data []byte) error {
	var st dcdState
	if err := unblob(data, &st); err != nil {
		return err
	}
	if err := n.SetState(st.Trainer); err != nil {
		return err
	}
	for j := range n.replicas {
		copy(n.replicas[j], st.Replicas[j])
	}
	return nil
}

// fedWorkerState adds the last pulled server model: S-FedAvg's delta upload
// is relative to it, so a worker restored mid-schedule must remember it.
type fedWorkerState struct {
	Trainer core.TrainerState
	Pulled  []float64
}

// CaptureState implements engine.Stateful.
func (f *fedWorkerNode) CaptureState() ([]byte, error) {
	ts, err := f.State()
	if err != nil {
		return nil, err
	}
	return blob(fedWorkerState{Trainer: ts, Pulled: append([]float64(nil), f.pulled...)})
}

// RestoreState implements engine.Stateful.
func (f *fedWorkerNode) RestoreState(data []byte) error {
	var st fedWorkerState
	if err := unblob(data, &st); err != nil {
		return err
	}
	if err := f.SetState(st.Trainer); err != nil {
		return err
	}
	f.pulled = append(f.pulled[:0], st.Pulled...)
	return nil
}

// serverModel is a hub server's round-boundary state, the global model; both
// server nodes embed it.
type serverModel struct {
	model *nn.Model
}

// serverState is serverModel on the wire.
type serverState struct {
	Model []byte
}

// CaptureState implements engine.Stateful.
func (s serverModel) CaptureState() ([]byte, error) {
	var buf bytes.Buffer
	if err := s.model.Save(&buf); err != nil {
		return nil, err
	}
	return blob(serverState{Model: buf.Bytes()})
}

// RestoreState implements engine.Stateful.
func (s serverModel) RestoreState(data []byte) error {
	var st serverState
	if err := unblob(data, &st); err != nil {
		return err
	}
	return s.model.Load(bytes.NewReader(st.Model))
}

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
