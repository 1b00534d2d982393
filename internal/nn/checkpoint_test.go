package nn

import "testing"

// saved is m's checkpoint in an exactly sized buffer, which AppendCheckpoint
// must fill and not outgrow.
func saved(t *testing.T, m *Model) []byte {
	t.Helper()
	buf := m.AppendCheckpoint(make([]byte, 0, m.CheckpointSize()))
	if len(buf) != m.CheckpointSize() || cap(buf) != m.CheckpointSize() {
		t.Fatalf("checkpoint is %d bytes (cap %d), CheckpointSize says %d", len(buf), cap(buf), m.CheckpointSize())
	}
	return buf
}

func TestCheckpointRoundTrip(t *testing.T) {
	m := NewMLP(10, []int{8}, 3, 2)
	p := m.FlatParams(nil)
	for i := range p {
		p[i] = float64(i) * 0.01
	}
	m.SetFlatParams(p)

	buf := saved(t, m)
	restored := NewMLP(10, []int{8}, 3, 99) // different init seed
	if err := restored.LoadCheckpoint(buf); err != nil {
		t.Fatal(err)
	}
	got := restored.FlatParams(nil)
	for i := range p {
		if got[i] != p[i] {
			t.Fatalf("param %d differs after reload", i)
		}
	}
}

func TestCheckpointArchMismatch(t *testing.T) {
	m := NewMLP(10, []int{8}, 3, 2)
	buf := saved(t, m)
	other := NewMNISTCNN(Shape{C: 1, H: 8, W: 8}, 3, 0.25, 1)
	if err := other.LoadCheckpoint(buf); err == nil {
		t.Fatal("loading MLP checkpoint into CNN should fail")
	}
}

func TestCheckpointSizeMismatch(t *testing.T) {
	m := NewMLP(10, []int{8}, 3, 2)
	buf := saved(t, m)
	smaller := NewMLP(10, []int{4}, 3, 2)
	smaller.Name = m.Name // force the name check to pass
	if err := smaller.LoadCheckpoint(buf); err == nil {
		t.Fatal("size mismatch should fail")
	}
}

func TestCheckpointGarbageInput(t *testing.T) {
	m := NewMLP(4, nil, 2, 1)
	if err := m.LoadCheckpoint([]byte("not a checkpoint")); err == nil {
		t.Fatal("garbage input should fail")
	}
}
