package nn

import (
	"fmt"

	"sapspsgd/internal/tensor"
)

// Stateful is implemented by layers that carry non-parameter internal state
// which must survive a save/load cycle — BatchNorm's running mean/variance.
// Such state is deliberately excluded from the flat parameter vector (it is
// not exchanged between workers) but belongs in a checkpoint.
type Stateful interface {
	// RunningState returns a copy of the layer's internal statistics.
	RunningState() []float64
	// SetRunningState restores statistics captured by RunningState. It
	// panics on a length mismatch.
	SetRunningState(s []float64)
}

// A checkpoint is the serialized form of a model: a name section, the flat
// parameter vector, then one vector per Stateful layer, each a tensor section
// of raw words, to the end of the bytes. Architecture is reconstructed by the
// caller (the same convention the coordinator's final-model collection
// uses); the name guards against loading into the wrong architecture.

// collectState gathers the Stateful layers' state, walking nested layers
// through composite blocks.
func (m *Model) collectState() [][]float64 {
	var out [][]float64
	for _, l := range m.layers {
		out = append(out, layerStates(l)...)
	}
	return out
}

// layerStates returns the running state of l and (for composite layers) its
// children, in deterministic order.
func layerStates(l Layer) [][]float64 {
	switch v := l.(type) {
	case Stateful:
		return [][]float64{v.RunningState()}
	case *Residual:
		var out [][]float64
		out = append(out, v.bn1.RunningState(), v.bn2.RunningState())
		if v.projBN != nil {
			out = append(out, v.projBN.RunningState())
		}
		return out
	default:
		return nil
	}
}

// applyStates restores collected running state; it returns the number of
// entries consumed.
func applyStates(l Layer, states [][]float64, pos int) int {
	switch v := l.(type) {
	case Stateful:
		v.SetRunningState(states[pos])
		return pos + 1
	case *Residual:
		v.bn1.SetRunningState(states[pos])
		v.bn2.SetRunningState(states[pos+1])
		pos += 2
		if v.projBN != nil {
			v.projBN.SetRunningState(states[pos])
			pos++
		}
		return pos
	default:
		return pos
	}
}

// CheckpointSize is the exact number of bytes AppendCheckpoint appends.
func (m *Model) CheckpointSize() int {
	size := tensor.SectionSize(len(m.Name)) + tensor.SectionSize(8*len(m.data))
	for _, st := range m.collectState() {
		size += tensor.SectionSize(8 * len(st))
	}
	return size
}

// AppendCheckpoint appends the model's parameters and running statistics to
// dst, straight from the model's own storage.
func (m *Model) AppendCheckpoint(dst []byte) []byte {
	dst = append(tensor.BeginSection(dst, len(m.Name)), m.Name...)
	dst = tensor.AppendVector(dst, m.data)
	for _, st := range m.collectState() {
		dst = tensor.AppendVector(dst, st)
	}
	return dst
}

// LoadCheckpoint restores a checkpoint written by AppendCheckpoint — all of
// b — into an identically constructed model. It fails, before touching the
// model, if the architecture name, parameter count, or state shape differs.
func (m *Model) LoadCheckpoint(b []byte) error {
	name, b, err := tensor.CutSection(b)
	if err != nil {
		return fmt.Errorf("nn: load: %w", err)
	}
	if string(name) != m.Name {
		return fmt.Errorf("nn: checkpoint is %q, model is %q", name, m.Name)
	}
	params, b, err := tensor.CutSection(b)
	if err != nil {
		return fmt.Errorf("nn: load %s: %w", m.Name, err)
	}
	if len(params) != 8*len(m.data) {
		return fmt.Errorf("nn: checkpoint has %d parameter bytes, model has %d params", len(params), len(m.data))
	}
	// collectState's copies have the model's shapes: decode over them.
	states := m.collectState()
	for i, st := range states {
		var sec []byte
		if sec, b, err = tensor.CutSection(b); err != nil {
			return fmt.Errorf("nn: load %s state %d of %d: %w", m.Name, i, len(states), err)
		}
		if err := tensor.DecodeWords(st, sec); err != nil {
			return fmt.Errorf("nn: load %s state %d: %w", m.Name, i, err)
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("nn: checkpoint has %d bytes beyond the model's %d state entries", len(b), len(states))
	}
	if err := tensor.DecodeWords(m.data, params); err != nil {
		return err
	}
	pos := 0
	for _, l := range m.layers {
		pos = applyStates(l, states, pos)
	}
	return nil
}
