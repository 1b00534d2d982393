package nn

import (
	"fmt"

	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// Dropout randomly zeroes activations at the given rate during training and
// scales the survivors by 1/(1-rate) (inverted dropout), so inference is an
// identity pass.
type Dropout struct {
	Rate float64
	rnd  *rng.Source
	mask []bool
}

// NewDropout returns a dropout layer; rate must lie in [0, 1).
func NewDropout(rate float64, seed uint64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v", rate))
	}
	return &Dropout{Rate: rate, rnd: rng.New(seed)}
}

// Forward applies the mask in training mode; identity in inference.
func (d *Dropout) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if !train || d.Rate == 0 {
		out := tensor.NewMatrix(x.Rows, x.Cols)
		copy(out.Data, x.Data)
		return out
	}
	if len(d.mask) != len(x.Data) {
		d.mask = make([]bool, len(x.Data))
	}
	scale := 1 / (1 - d.Rate)
	out := tensor.NewMatrix(x.Rows, x.Cols)
	for i, v := range x.Data {
		if d.rnd.Float64() >= d.Rate {
			d.mask[i] = true
			out.Data[i] = v * scale
		} else {
			d.mask[i] = false
		}
	}
	return out
}

// Backward routes gradients through the surviving units with the same scale;
// at rate 0 it is the identity Forward was, which drew no mask.
func (d *Dropout) Backward(dout *tensor.Matrix) *tensor.Matrix {
	dx := tensor.NewMatrix(dout.Rows, dout.Cols)
	if d.Rate == 0 {
		copy(dx.Data, dout.Data)
		return dx
	}
	scale := 1 / (1 - d.Rate)
	for i, v := range dout.Data {
		if d.mask[i] {
			dx.Data[i] = v * scale
		}
	}
	return dx
}

// Params returns nothing: dropout is stateless (the RNG is not a parameter).
func (d *Dropout) Params() []Param { return nil }

var _ Layer = (*Dropout)(nil)

// AvgPool2D is average pooling with square window and equal stride.
type AvgPool2D struct {
	In       Shape
	K        int
	OutShape Shape
	rows     int
}

// NewAvgPool2D returns a K×K average pool with stride K; spatial dims must
// divide by K.
func NewAvgPool2D(in Shape, k int) *AvgPool2D {
	if in.H%k != 0 || in.W%k != 0 {
		panic(fmt.Sprintf("nn: AvgPool2D %v not divisible by %d", in, k))
	}
	return &AvgPool2D{In: in, K: k, OutShape: Shape{C: in.C, H: in.H / k, W: in.W / k}}
}

// Forward averages each window.
func (p *AvgPool2D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	oH, oW := p.OutShape.H, p.OutShape.W
	inv := 1 / float64(p.K*p.K)
	out := tensor.NewMatrix(x.Rows, p.OutShape.Dim())
	p.rows = x.Rows
	for i := 0; i < x.Rows; i++ {
		in := x.Row(i)
		o := out.Row(i)
		for c := 0; c < p.In.C; c++ {
			chIn := in[c*p.In.H*p.In.W:]
			for oy := 0; oy < oH; oy++ {
				for ox := 0; ox < oW; ox++ {
					s := 0.0
					for ky := 0; ky < p.K; ky++ {
						for kx := 0; kx < p.K; kx++ {
							s += chIn[(oy*p.K+ky)*p.In.W+ox*p.K+kx]
						}
					}
					o[(c*oH+oy)*oW+ox] = s * inv
				}
			}
		}
	}
	return out
}

// Backward spreads each output gradient uniformly over its window.
func (p *AvgPool2D) Backward(dout *tensor.Matrix) *tensor.Matrix {
	oH, oW := p.OutShape.H, p.OutShape.W
	inv := 1 / float64(p.K*p.K)
	dx := tensor.NewMatrix(p.rows, p.In.Dim())
	for i := 0; i < dout.Rows; i++ {
		dr := dout.Row(i)
		dxr := dx.Row(i)
		for c := 0; c < p.In.C; c++ {
			chDx := dxr[c*p.In.H*p.In.W:]
			for oy := 0; oy < oH; oy++ {
				for ox := 0; ox < oW; ox++ {
					g := dr[(c*oH+oy)*oW+ox] * inv
					for ky := 0; ky < p.K; ky++ {
						for kx := 0; kx < p.K; kx++ {
							chDx[(oy*p.K+ky)*p.In.W+ox*p.K+kx] += g
						}
					}
				}
			}
		}
	}
	return dx
}

// Params returns nothing: pooling is stateless.
func (p *AvgPool2D) Params() []Param { return nil }

var _ Layer = (*AvgPool2D)(nil)
