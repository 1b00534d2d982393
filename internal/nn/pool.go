package nn

import (
	"fmt"

	"sapspsgd/internal/tensor"
)

// MaxPool2D is a max pooling layer with square window and equal stride.
type MaxPool2D struct {
	In       Shape
	K        int
	OutShape Shape
	argmax   []int32 // per batch element×output position: winning input index
	rows     int
}

// NewMaxPool2D returns a K×K max pool with stride K. The input spatial size
// must be divisible by K.
func NewMaxPool2D(in Shape, k int) *MaxPool2D {
	if in.H%k != 0 || in.W%k != 0 {
		panic(fmt.Sprintf("nn: MaxPool2D %v not divisible by %d", in, k))
	}
	return &MaxPool2D{In: in, K: k, OutShape: Shape{C: in.C, H: in.H / k, W: in.W / k}}
}

// Forward computes window maxima, caching argmax indices when training.
func (p *MaxPool2D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != p.In.Dim() {
		panic(fmt.Sprintf("nn: MaxPool2D input %d, want %d", x.Cols, p.In.Dim()))
	}
	oH, oW := p.OutShape.H, p.OutShape.W
	out := tensor.NewMatrix(x.Rows, p.OutShape.Dim())
	if train {
		p.rows = x.Rows
		need := x.Rows * p.OutShape.Dim()
		if len(p.argmax) != need {
			p.argmax = make([]int32, need)
		}
	}
	for i := 0; i < x.Rows; i++ {
		in := x.Row(i)
		o := out.Row(i)
		for c := 0; c < p.In.C; c++ {
			chIn := in[c*p.In.H*p.In.W:]
			for oy := 0; oy < oH; oy++ {
				for ox := 0; ox < oW; ox++ {
					best := chIn[oy*p.K*p.In.W+ox*p.K]
					bestIdx := oy*p.K*p.In.W + ox*p.K
					for ky := 0; ky < p.K; ky++ {
						for kx := 0; kx < p.K; kx++ {
							idx := (oy*p.K+ky)*p.In.W + ox*p.K + kx
							if chIn[idx] > best {
								best = chIn[idx]
								bestIdx = idx
							}
						}
					}
					oPos := (c*oH+oy)*oW + ox
					o[oPos] = best
					if train {
						p.argmax[i*p.OutShape.Dim()+oPos] = int32(c*p.In.H*p.In.W + bestIdx)
					}
				}
			}
		}
	}
	return out
}

// Backward routes each output gradient to its winning input position.
func (p *MaxPool2D) Backward(dout *tensor.Matrix) *tensor.Matrix {
	dx := tensor.NewMatrix(p.rows, p.In.Dim())
	dim := p.OutShape.Dim()
	for i := 0; i < dout.Rows; i++ {
		dr := dout.Row(i)
		dxr := dx.Row(i)
		for j, g := range dr {
			dxr[p.argmax[i*dim+j]] += g
		}
	}
	return dx
}

// Params returns nothing: pooling is stateless.
func (p *MaxPool2D) Params() []Param { return nil }

func (p *MaxPool2D) clone(*arena) Layer { return &MaxPool2D{In: p.In, K: p.K, OutShape: p.OutShape} }

var _ Layer = (*MaxPool2D)(nil)

// GlobalAvgPool averages each channel over its spatial extent — ResNet's
// final pooling.
type GlobalAvgPool struct {
	In   Shape
	rows int
}

// NewGlobalAvgPool returns a global average pool over the spatial dims.
func NewGlobalAvgPool(in Shape) *GlobalAvgPool { return &GlobalAvgPool{In: in} }

// Forward reduces each channel to its mean.
func (p *GlobalAvgPool) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	hw := p.In.H * p.In.W
	out := tensor.NewMatrix(x.Rows, p.In.C)
	p.rows = x.Rows
	for i := 0; i < x.Rows; i++ {
		in := x.Row(i)
		o := out.Row(i)
		for c := 0; c < p.In.C; c++ {
			o[c] = tensor.Mean(in[c*hw : (c+1)*hw])
		}
	}
	return out
}

// Backward spreads each channel gradient uniformly over its positions.
func (p *GlobalAvgPool) Backward(dout *tensor.Matrix) *tensor.Matrix {
	hw := p.In.H * p.In.W
	inv := 1 / float64(hw)
	dx := tensor.NewMatrix(p.rows, p.In.Dim())
	for i := 0; i < dout.Rows; i++ {
		dr := dout.Row(i)
		dxr := dx.Row(i)
		for c := 0; c < p.In.C; c++ {
			g := dr[c] * inv
			seg := dxr[c*hw : (c+1)*hw]
			for j := range seg {
				seg[j] = g
			}
		}
	}
	return dx
}

// Params returns nothing: pooling is stateless.
func (p *GlobalAvgPool) Params() []Param { return nil }

func (p *GlobalAvgPool) clone(*arena) Layer { return NewGlobalAvgPool(p.In) }

var _ Layer = (*GlobalAvgPool)(nil)
