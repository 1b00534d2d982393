// Package nn is a from-scratch CPU neural-network library with manual
// backpropagation, built so the SAPS-PSGD reproduction can train the paper's
// three architectures (MNIST-CNN, CIFAR10-CNN, ResNet-20) without any
// external deep-learning dependency.
//
// Layers operate on minibatches stored as tensor.Matrix values with one
// sample per row (channel-major C×H×W flattening for images). Models expose
// their parameters as a flat []float64 — the representation every
// compression and gossip operator in this repository works on (Eq. (2) of
// the paper).
//
// A Model is NOT safe for concurrent use; each simulated worker owns its own
// instance.
package nn

import (
	"fmt"

	"sapspsgd/internal/tensor"
)

// Param is one named parameter tensor with its gradient accumulator. Data
// and Grad always have equal length.
type Param struct {
	Name string
	Data []float64
	Grad []float64
}

// Layer is one differentiable stage of a model.
type Layer interface {
	// Forward consumes a batch (rows = samples) and returns the output
	// batch. When train is false, layers use inference behaviour (e.g.
	// BatchNorm running statistics) and may skip caching. A training
	// Forward may keep x until Backward; the result is never x, shares no
	// storage with it, and is the caller's alone — a layer keeps no
	// reference to it (Model recycles it through the tensor pool).
	Forward(x *tensor.Matrix, train bool) *tensor.Matrix
	// Backward consumes dL/d(output) and returns dL/d(input), accumulating
	// parameter gradients. It must be called exactly once after each
	// training Forward. The same ownership rule holds: dout is not kept,
	// the result is fresh and the caller's.
	Backward(dout *tensor.Matrix) *tensor.Matrix
	// Params returns the layer's parameters (views, not copies); empty for
	// stateless layers.
	Params() []Param
}

// Shape is the image geometry flowing between layers.
type Shape struct{ C, H, W int }

// Dim returns the flattened dimension.
func (s Shape) Dim() int { return s.C * s.H * s.W }

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// Model is a sequential stack of layers.
type Model struct {
	Name   string
	In     Shape
	Out    int // output dimension (class count)
	layers []Layer
	params []Param
	n      int
	// acts are the inter-layer matrices of the last training Forward, which
	// the layers above them cache as inputs until Backward releases them.
	acts []*tensor.Matrix
}

// NewModel assembles a sequential model; the parameter registry is built
// once at construction.
func NewModel(name string, in Shape, out int, layers ...Layer) *Model {
	m := &Model{Name: name, In: in, Out: out, layers: layers}
	for _, l := range layers {
		for _, p := range l.Params() {
			if len(p.Data) != len(p.Grad) {
				panic(fmt.Sprintf("nn: param %s data/grad length mismatch", p.Name))
			}
			m.params = append(m.params, p)
			m.n += len(p.Data)
		}
	}
	return m
}

// ParamCount returns the total number of scalar parameters N.
func (m *Model) ParamCount() int { return m.n }

// Forward runs the full stack on a batch. The result is the caller's (hand
// it to tensor.PutMatrix when done, or let it go); x stays the caller's and
// must outlive the matching Backward when train is set. Everything in
// between is the model's: an inference pass recycles each intermediate as
// soon as the next layer has read it, a training pass holds them for
// Backward.
func (m *Model) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if train {
		m.releaseActs() // of a training Forward that no Backward followed
	}
	in := x
	for _, l := range m.layers {
		out := l.Forward(in, train)
		if in != x {
			if train {
				m.acts = append(m.acts, in)
			} else {
				tensor.PutMatrix(in)
			}
		}
		in = out
	}
	return in
}

// Backward propagates dL/d(logits) back through the stack, accumulating
// parameter gradients. dout stays the caller's; each inter-layer gradient is
// recycled once the layer below has consumed it, and the training
// activations once every layer has.
func (m *Model) Backward(dout *tensor.Matrix) {
	d := dout
	for i := len(m.layers) - 1; i >= 0; i-- {
		below := m.layers[i].Backward(d)
		if d != dout {
			tensor.PutMatrix(d)
		}
		d = below
	}
	if d != dout {
		tensor.PutMatrix(d)
	}
	m.releaseActs()
}

func (m *Model) releaseActs() {
	for i, a := range m.acts {
		tensor.PutMatrix(a)
		m.acts[i] = nil
	}
	m.acts = m.acts[:0]
}

// ZeroGrads clears all gradient accumulators.
func (m *Model) ZeroGrads() {
	for _, p := range m.params {
		tensor.Fill(p.Grad, 0)
	}
}

// FlatParams copies all parameters into dst (allocating when dst is nil or
// mis-sized) and returns it, in deterministic registry order.
func (m *Model) FlatParams(dst []float64) []float64 {
	if len(dst) != m.n {
		dst = make([]float64, m.n)
	}
	off := 0
	for _, p := range m.params {
		copy(dst[off:], p.Data)
		off += len(p.Data)
	}
	return dst
}

// SetFlatParams writes the flat vector back into the layer parameters. It
// panics if the length differs from ParamCount.
func (m *Model) SetFlatParams(src []float64) {
	if len(src) != m.n {
		panic(fmt.Sprintf("nn: SetFlatParams length %d != %d", len(src), m.n))
	}
	off := 0
	for _, p := range m.params {
		copy(p.Data, src[off:off+len(p.Data)])
		off += len(p.Data)
	}
}

// FlatGrads copies all gradients into dst (allocating as needed).
func (m *Model) FlatGrads(dst []float64) []float64 {
	if len(dst) != m.n {
		dst = make([]float64, m.n)
	}
	off := 0
	for _, p := range m.params {
		copy(dst[off:], p.Grad)
		off += len(p.Grad)
	}
	return dst
}

// AddFlatToParams performs params += scale * v, the flat-vector SGD step
// x ← x − γg when scale = −γ and v = gradients.
func (m *Model) AddFlatToParams(scale float64, v []float64) {
	if len(v) != m.n {
		panic(fmt.Sprintf("nn: AddFlatToParams length %d != %d", len(v), m.n))
	}
	off := 0
	for _, p := range m.params {
		tensor.Axpy(scale, v[off:off+len(p.Data)], p.Data)
		off += len(p.Data)
	}
}

// Params exposes the parameter registry.
func (m *Model) Params() []Param { return m.params }
