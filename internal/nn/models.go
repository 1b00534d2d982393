package nn

import (
	"fmt"

	"sapspsgd/internal/rng"
)

// scaleC scales a channel count by width, with a floor of 1.
func scaleC(base int, width float64) int {
	c := int(float64(float64(base)*width) + 0.5)
	if c < 1 {
		return 1
	}
	return c
}

// NewMNISTCNN builds the paper's MNIST-CNN (the CNN of McMahan et al.,
// FedAvg): conv5×5-32 → pool2 → conv5×5-64 → pool2 → fc-512 → fc-classes.
// width scales all channel/hidden sizes (1.0 = paper scale); in must have
// spatial dims divisible by 4.
func NewMNISTCNN(in Shape, classes int, width float64, seed uint64) *Model {
	r := rng.New(seed)
	c1 := NewConv2D(in, scaleC(32, width), 5, 1, 2, r)
	p1 := NewMaxPool2D(c1.OutShape, 2)
	c2 := NewConv2D(p1.OutShape, scaleC(64, width), 5, 1, 2, r)
	p2 := NewMaxPool2D(c2.OutShape, 2)
	fc1 := NewDense(p2.OutShape.Dim(), scaleC(512, width), r)
	fc2 := NewDense(fc1.OutDim, classes, r)
	return NewModel(fmt.Sprintf("mnist-cnn(w=%.2f)", width), in, classes,
		c1, NewReLU(), p1,
		c2, NewReLU(), p2,
		fc1, NewReLU(), fc2,
	)
}

// NewCIFARCNN builds the paper's CIFAR10-CNN (the TensorFlow-tutorial style
// CNN McMahan et al. use for CIFAR-10): conv5×5-64 → pool2 → conv5×5-64 →
// pool2 → fc-384 → fc-192 → fc-classes.
func NewCIFARCNN(in Shape, classes int, width float64, seed uint64) *Model {
	r := rng.New(seed)
	c1 := NewConv2D(in, scaleC(64, width), 5, 1, 2, r)
	p1 := NewMaxPool2D(c1.OutShape, 2)
	c2 := NewConv2D(p1.OutShape, scaleC(64, width), 5, 1, 2, r)
	p2 := NewMaxPool2D(c2.OutShape, 2)
	fc1 := NewDense(p2.OutShape.Dim(), scaleC(384, width), r)
	fc2 := NewDense(fc1.OutDim, scaleC(192, width), r)
	fc3 := NewDense(fc2.OutDim, classes, r)
	return NewModel(fmt.Sprintf("cifar10-cnn(w=%.2f)", width), in, classes,
		c1, NewReLU(), p1,
		c2, NewReLU(), p2,
		fc1, NewReLU(), fc2, NewReLU(), fc3,
	)
}

// NewResNet builds a CIFAR-style ResNet-(6k+2): conv3×3 stem, three stages
// of blocksPerStage basic blocks with 16/32/64 channels (scaled by width)
// and strides 1/2/2, global average pooling, and a linear classifier.
// blocksPerStage = 3 gives the paper's ResNet-20.
func NewResNet(in Shape, classes, blocksPerStage int, width float64, seed uint64) *Model {
	if blocksPerStage < 1 {
		panic(fmt.Sprintf("nn: ResNet blocksPerStage %d", blocksPerStage))
	}
	r := rng.New(seed)
	stemC := scaleC(16, width)
	stem := NewConv2D(in, stemC, 3, 1, 1, r)
	layers := []Layer{stem, NewBatchNorm2D(stem.OutShape), NewReLU()}
	shape := stem.OutShape
	for stage, baseC := range []int{16, 32, 64} {
		outC := scaleC(baseC, width)
		for b := 0; b < blocksPerStage; b++ {
			stride := 1
			if stage > 0 && b == 0 {
				stride = 2
			}
			blk := NewResidual(shape, outC, stride, r)
			layers = append(layers, blk)
			shape = blk.OutShape
		}
	}
	gap := NewGlobalAvgPool(shape)
	layers = append(layers, gap, NewDense(shape.C, classes, r))
	depth := 6*blocksPerStage + 2
	return NewModel(fmt.Sprintf("resnet-%d(w=%.2f)", depth, width), in, classes, layers...)
}

// NewMLP builds a plain multilayer perceptron — used by fast unit tests and
// the quadratic-convergence checks.
func NewMLP(inDim int, hidden []int, classes int, seed uint64) *Model {
	r := rng.New(seed)
	a := newArena(MLPParamCount(inDim, hidden, classes))
	var layers []Layer
	prev := inDim
	for _, h := range hidden {
		layers = append(layers, newDense(prev, h, r, a), NewReLU())
		prev = h
	}
	layers = append(layers, newDense(prev, classes, r, a))
	return NewModel("mlp", Shape{C: 1, H: 1, W: inDim}, classes, layers...)
}

// Arch names a model family in the scenario spec's vocabulary (its model
// block), which in-process runs and TCP workers alike read. New is the one
// place that vocabulary turns into a constructor call.
type Arch struct {
	// Name is "mlp" (also the meaning of ""), "mnist-cnn", "cifar-cnn" or
	// "resnet".
	Name string
	// Width scales the CNN families' channel and hidden sizes (1.0 = paper
	// scale). Unused by the MLP.
	Width float64
	// Hidden lists the MLP's hidden-layer widths.
	Hidden []int
	// Blocks is the ResNet's basic blocks per stage; 0 means 3 (ResNet-20).
	Blocks int
}

// IsMLP reports whether the family is the plain perceptron, whose parameter
// count MLPParamCount gives without building it.
func (a Arch) IsMLP() bool { return a.Name == "" || a.Name == "mlp" }

// Validate reports the first reason New(in, classes, ·) would fail: an
// unknown family, a non-positive size, or an input geometry the family's
// pooling stages cannot halve.
func (a Arch) Validate(in Shape, classes int) error {
	if in.C < 1 || in.H < 1 || in.W < 1 || classes < 1 {
		return fmt.Errorf("nn: %s on input %v with %d classes", a.Name, in, classes)
	}
	switch {
	case a.IsMLP():
		for _, h := range a.Hidden {
			if h < 1 {
				return fmt.Errorf("nn: hidden width %d", h)
			}
		}
		return nil
	case a.Name == "mnist-cnn" || a.Name == "cifar-cnn":
		if in.H%4 != 0 || in.W%4 != 0 {
			return fmt.Errorf("nn: %s needs height and width divisible by 4, have %v", a.Name, in)
		}
	case a.Name == "resnet":
		if a.Blocks < 0 {
			return fmt.Errorf("nn: resnet blocks %d", a.Blocks)
		}
	default:
		return fmt.Errorf("nn: unknown arch %q (want mlp, mnist-cnn, cifar-cnn or resnet)", a.Name)
	}
	if !(a.Width > 0) {
		return fmt.Errorf("nn: %s width %v", a.Name, a.Width)
	}
	return nil
}

// New builds the family's model for the given input geometry. Equal
// arguments give bit-identical initial parameters.
func (a Arch) New(in Shape, classes int, seed uint64) (*Model, error) {
	if err := a.Validate(in, classes); err != nil {
		return nil, err
	}
	switch a.Name {
	case "mnist-cnn":
		return NewMNISTCNN(in, classes, a.Width, seed), nil
	case "cifar-cnn":
		return NewCIFARCNN(in, classes, a.Width, seed), nil
	case "resnet":
		blocks := a.Blocks
		if blocks == 0 {
			blocks = 3
		}
		return NewResNet(in, classes, blocks, a.Width, seed), nil
	}
	return NewMLP(in.Dim(), a.Hidden, classes, seed), nil
}

// MLPParamCount returns NewMLP's parameter count without building the model
// (dense layers: weights + biases). Planner-only scenario runs use it to
// size the round mask with no per-rank model in memory.
func MLPParamCount(inDim int, hidden []int, classes int) int {
	total, prev := 0, inDim
	for _, h := range hidden {
		total += prev*h + h
		prev = h
	}
	return total + prev*classes + classes
}
