// Package nn is a from-scratch CPU neural-network library with manual
// backpropagation, built so the SAPS-PSGD reproduction can train the paper's
// three architectures (MNIST-CNN, CIFAR10-CNN, ResNet-20) without any
// external deep-learning dependency.
//
// Layers operate on minibatches stored as tensor.Matrix values with one
// sample per row (channel-major C×H×W flattening for images). Models expose
// their parameters as a flat []float64 — the representation every
// compression and gossip operator in this repository works on (Eq. (2) of
// the paper). That vector is the storage itself: NewModel moves every
// layer's parameters into one contiguous vector, and their gradients into a
// second, in registry order, so each Param is a subslice of the two (Flat).
//
// Model.Backward asks the bottom layer for its parameter gradients only:
// dL/d(input) of the first layer is the gradient of the data, which nothing
// reads.
//
// A Model is NOT safe for concurrent use; each simulated worker owns its own
// instance.
package nn

import (
	"fmt"
	"slices"

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
	// storage with it, and is the caller's (Model recycles it through the
	// tensor pool). Only a Dense with a fused ReLU reads its result again,
	// in Backward, which is why NewModel never fuses the top layer.
	Forward(x *tensor.Matrix, train bool) *tensor.Matrix
	// Backward consumes dL/d(output) and returns dL/d(input), adding the
	// parameter gradients into their accumulators — or, for a Dense,
	// writing them. It must be called exactly once after each training
	// Forward. The same ownership rule holds: dout is not kept, the result
	// is fresh and the caller's. A Model calls it on every layer but the
	// bottom one, which it asks for its parameter gradients alone when the
	// layer can give them (see paramGrader).
	Backward(dout *tensor.Matrix) *tensor.Matrix
	// Params returns the layer's parameters (views, not copies); empty for
	// stateless layers. A layer with parameters also lists where it keeps
	// them (slotted), so a Model can move them into its flat vectors.
	Params() []Param
	// clone returns a layer of the same configuration and internal state
	// (BatchNorm's running statistics), with no cached activations, whose
	// parameters and gradients are a's next words, taken in slots order as
	// they stand. It draws nothing and shares no storage with the layer.
	// A Dense clone has no fused ReLU: NewModel fuses it again.
	clone(a *arena) Layer
}

// paramGrader is implemented by layers whose Backward can stop after the
// parameter gradients. backwardParams leaves exactly the parameter
// gradients Backward leaves, with the same kernel, and computes no
// dL/d(input) — so the bottom layer of a model skips its largest product and
// gives the same bits.
type paramGrader interface {
	backwardParams(dout *tensor.Matrix)
}

// slot is where a layer keeps one parameter tensor and its gradient.
type slot struct {
	name       string
	data, grad *[]float64
}

// slotted is implemented by every layer with parameters: slots lists their
// storage in Params order, and Params is paramsOf(slots()). NewModel points
// each slot into the model's flat vectors, so a layer keeps no storage of
// its own beside them.
type slotted interface {
	slots() []slot
}

// paramsOf returns the parameters the slots hold.
func paramsOf(slots []slot) []Param {
	out := make([]Param, len(slots))
	for i, s := range slots {
		out[i] = Param{Name: s.name, Data: *s.data, Grad: *s.grad}
	}
	return out
}

// Shape is the image geometry flowing between layers.
type Shape struct{ C, H, W int }

// Dim returns the flattened dimension.
func (s Shape) Dim() int { return s.C * s.H * s.W }

// String formats the geometry as C×H×W, e.g. "3x32x32".
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// Model is a sequential stack of layers.
type Model struct {
	Name   string
	In     Shape
	Out    int // output dimension (class count)
	layers []Layer
	params []Param
	// data and grad are every parameter and every gradient, in registry
	// order: each Param's Data and Grad is a subslice of them.
	data, grad []float64
	// acts are the inter-layer matrices of the last training Forward, which
	// the layers above them cache as inputs until Backward releases them.
	acts []*tensor.Matrix
	// accum are the gradients that Backward adds into, every layer's but a
	// Dense's: ZeroGrads clears these alone.
	accum [][]float64
}

// NewModel assembles a sequential model. It moves the layers' parameters
// and gradients, values included, into the model's two flat vectors — or
// adopts the vectors when the layers were built into an arena and already
// tile them — and builds the parameter registry over them. A Dense that a
// ReLU directly follows, below the top layer, takes that ReLU into its own
// forward epilogue and backward (DESIGN §8), and the ReLU leaves the stack.
// A layer belongs to one model.
func NewModel(name string, in Shape, out int, layers ...Layer) *Model {
	m := &Model{Name: name, In: in, Out: out, layers: fuse(layers)}
	var slots []slot
	for _, l := range m.layers {
		if s, ok := l.(slotted); ok {
			slots = append(slots, s.slots()...)
		} else if len(l.Params()) > 0 {
			panic(fmt.Sprintf("nn: layer %T has parameters but no slots", l))
		}
	}
	n := 0
	for _, s := range slots {
		if len(*s.data) != len(*s.grad) {
			panic(fmt.Sprintf("nn: param %s data/grad length mismatch", s.name))
		}
		n += len(*s.data)
	}
	m.data, m.grad = inPlace(slots, n)
	moved := m.data == nil
	if moved {
		m.data, m.grad = make([]float64, n), make([]float64, n)
	}
	off := 0
	for _, s := range slots {
		end := off + len(*s.data)
		if moved {
			copy(m.data[off:end], *s.data)
			copy(m.grad[off:end], *s.grad)
		}
		*s.data, *s.grad = m.data[off:end:end], m.grad[off:end:end]
		off = end
	}
	m.params = paramsOf(slots)
	for _, l := range m.layers {
		if _, writes := l.(*Dense); !writes {
			for _, p := range l.Params() {
				m.accum = append(m.accum, p.Grad)
			}
		}
	}
	return m
}

// fuse returns the stack with every Dense that a ReLU directly follows,
// below the top layer (whose output is the caller's), set to apply that
// ReLU itself, and the ReLU dropped.
func fuse(layers []Layer) []Layer {
	out := make([]Layer, 0, len(layers))
	for i := 0; i < len(layers); i++ {
		out = append(out, layers[i])
		if d, ok := layers[i].(*Dense); ok && i+2 < len(layers) {
			if _, d.relu = layers[i+1].(*ReLU); d.relu {
				i++
			}
		}
	}
	return out
}

// inPlace returns the vectors the slots already tile, in order with nothing
// between them, as an arena lays them out; nil when they do not.
func inPlace(slots []slot, n int) (data, grad []float64) {
	if len(slots) == 0 || cap(*slots[0].data) < n || cap(*slots[0].grad) < n {
		return nil, nil
	}
	data, grad = (*slots[0].data)[:n], (*slots[0].grad)[:n]
	off := 0
	for _, s := range slots {
		if d, g := *s.data, *s.grad; len(d) > 0 && (&d[0] != &data[off] || &g[0] != &grad[off]) {
			return nil, nil
		}
		off += len(*s.data)
	}
	return data, grad
}

// arena hands a model constructor's layers, or a clone's, consecutive
// stretches of the model's two vectors, so that NewModel adopts them instead
// of copying (no second copy of the parameters is ever allocated). A nil
// arena gives every tensor storage of its own.
type arena struct{ data, grad []float64 }

func newArena(n int) *arena { return &arena{make([]float64, n), make([]float64, n)} }

// take returns the next n parameters and their gradients. Their capacity
// runs to the arena's end, which is how NewModel recognizes the layout.
func (a *arena) take(n int) (data, grad []float64) {
	if a == nil {
		return make([]float64, n), make([]float64, n)
	}
	data, grad, a.data, a.grad = a.data[:n], a.grad[:n], a.data[n:], a.grad[n:]
	return data, grad
}

// Clone returns a copy of m: the same layers, parameters and BatchNorm
// running statistics, zero gradients, no cached activations, and no storage
// shared with m. It draws nothing from any RNG — a fleet draws its initial
// model once and clones it into every other rank. The parameters are copied
// straight into the arena the clone's NewModel adopts.
func (m *Model) Clone() *Model {
	a := &arena{data: slices.Clone(m.data), grad: make([]float64, len(m.grad))}
	layers := make([]Layer, 0, len(m.layers))
	for _, l := range m.layers {
		layers = append(layers, l.clone(a))
		if d, ok := l.(*Dense); ok && d.relu {
			layers = append(layers, NewReLU()) // which NewModel fuses back in
		}
	}
	return NewModel(m.Name, m.In, m.Out, layers...)
}

// ParamCount returns the total number of scalar parameters N.
func (m *Model) ParamCount() int { return len(m.data) }

// Flat returns the model's live parameter and gradient vectors: views, not
// copies, in registry order. A write through params is a write to the
// model; the next training step overwrites grads. Use FlatParams for a copy
// that outlives the model's next change.
func (m *Model) Flat() (params, grads []float64) { return m.data, m.grad }

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

// Backward propagates dL/d(logits) back through the stack, leaving the
// parameter gradients in the model's gradient vector. dout stays the
// caller's; each inter-layer gradient is recycled once the layer below has
// consumed it, and the training activations once every layer has. The
// bottom layer computes no input gradient when it can avoid it: nothing
// below it would read one.
func (m *Model) Backward(dout *tensor.Matrix) {
	d := dout
	for i := len(m.layers) - 1; i > 0; i-- {
		below := m.layers[i].Backward(d)
		if d != dout {
			tensor.PutMatrix(d)
		}
		d = below
	}
	if len(m.layers) > 0 {
		if g, ok := m.layers[0].(paramGrader); ok {
			g.backwardParams(d)
		} else {
			tensor.PutMatrix(m.layers[0].Backward(d))
		}
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

// ZeroGrads clears the gradient accumulators: the gradients of the layers
// whose Backward adds into them (convolution, batch norm, residual blocks).
// A Dense writes its gradients, so an MLP has nothing to clear.
func (m *Model) ZeroGrads() {
	for _, g := range m.accum {
		clear(g)
	}
}

// FlatParams copies all parameters into dst (allocating when dst is nil or
// mis-sized) and returns it, in deterministic registry order. The copy is
// the caller's: it does not follow the model's later changes.
func (m *Model) FlatParams(dst []float64) []float64 {
	if len(dst) != len(m.data) {
		dst = make([]float64, len(m.data))
	}
	copy(dst, m.data)
	return dst
}

// SetFlatParams overwrites the parameters with src. It panics if the length
// differs from ParamCount.
func (m *Model) SetFlatParams(src []float64) {
	if len(src) != len(m.data) {
		panic(fmt.Sprintf("nn: SetFlatParams length %d != %d", len(src), len(m.data)))
	}
	copy(m.data, src)
}

// AddFlatToParams performs params += scale * v, the flat-vector SGD step
// x ← x − γg when scale = −γ and v = gradients.
func (m *Model) AddFlatToParams(scale float64, v []float64) {
	if len(v) != len(m.data) {
		panic(fmt.Sprintf("nn: AddFlatToParams length %d != %d", len(v), len(m.data)))
	}
	tensor.Axpy(scale, v, m.data)
}

// Params exposes the parameter registry.
func (m *Model) Params() []Param { return m.params }
