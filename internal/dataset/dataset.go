// Package dataset provides the synthetic image-classification tasks that
// stand in for MNIST and CIFAR-10 (which are unavailable offline — see
// DESIGN.md §2), plus the IID / non-IID partitioning used to shard training
// data across decentralized workers.
//
// Each class is defined by a small number of smooth prototype images; a
// sample is a randomly scaled prototype plus Gaussian pixel noise. The tasks
// are learnable by the same CNN architectures the paper trains, have held-out
// validation splits, and give the same accuracy-vs-communication curve shapes
// the paper reports.
package dataset

import (
	"fmt"
	"math"

	"sapspsgd/internal/rng"
)

// Sample is one labeled image, stored channel-major (C×H×W flattened).
type Sample struct {
	X     []float64
	Label int
}

// Dataset is an in-memory labeled image collection.
type Dataset struct {
	Name    string
	C, H, W int
	Classes int
	Samples []Sample
}

// Dim returns the flattened input dimension C*H*W.
func (d *Dataset) Dim() int { return d.C * d.H * d.W }

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// SynthConfig parameterizes the synthetic generator.
type SynthConfig struct {
	Name    string
	C, H, W int
	Classes int
	// PerClass is the number of prototype variants per class; more variants
	// make the task harder (intra-class variability).
	PerClass int
	// Noise is the standard deviation of the additive pixel noise.
	Noise float64
}

// prototypes builds smooth per-class pattern banks: low-frequency random
// fields obtained by mixing a few sinusoidal components with class-specific
// phases. Smoothness matters: it gives convolutions local structure to learn.
func prototypes(cfg SynthConfig, r *rng.Source) [][][]float64 {
	protos := make([][][]float64, cfg.Classes)
	for k := range protos {
		protos[k] = make([][]float64, cfg.PerClass)
		for v := range protos[k] {
			img := make([]float64, cfg.C*cfg.H*cfg.W)
			// Sum of a few random low-frequency plane waves per channel.
			for ch := 0; ch < cfg.C; ch++ {
				fx := 1 + r.Float64()*2
				fy := 1 + r.Float64()*2
				px := r.Float64() * 6.28318
				py := r.Float64() * 6.28318
				amp := 0.6 + 0.4*r.Float64()
				for y := 0; y < cfg.H; y++ {
					for x := 0; x < cfg.W; x++ {
						vv := amp * math.Sin(fx*float64(x)/float64(cfg.W)*6.28318+px) *
							math.Sin(fy*float64(y)/float64(cfg.H)*6.28318+py)
						img[ch*cfg.H*cfg.W+y*cfg.W+x] = vv
					}
				}
			}
			protos[k][v] = img
		}
	}
	return protos
}

// Synthetic generates n samples from cfg using the seed. Labels are balanced
// round-robin so every class appears ⌈n/Classes⌉ or ⌊n/Classes⌋ times.
func Synthetic(cfg SynthConfig, n int, seed uint64) *Dataset {
	if cfg.Classes < 2 || cfg.PerClass < 1 {
		panic(fmt.Sprintf("dataset: bad config %+v", cfg))
	}
	r := rng.New(seed)
	protos := prototypes(cfg, r.Derive(1))
	gen := r.Derive(2)
	d := &Dataset{
		Name:    cfg.Name,
		C:       cfg.C,
		H:       cfg.H,
		W:       cfg.W,
		Classes: cfg.Classes,
		Samples: make([]Sample, 0, n),
	}
	dim := cfg.C * cfg.H * cfg.W
	for i := 0; i < n; i++ {
		label := i % cfg.Classes
		proto := protos[label][gen.Intn(cfg.PerClass)]
		scale := 0.8 + 0.4*gen.Float64()
		x := make([]float64, dim)
		for j := range x {
			x[j] = scale*proto[j] + cfg.Noise*gen.NormFloat64()
		}
		d.Samples = append(d.Samples, Sample{X: x, Label: label})
	}
	// Shuffle so class order is not round-robin in storage.
	gen.Shuffle(len(d.Samples), func(i, j int) {
		d.Samples[i], d.Samples[j] = d.Samples[j], d.Samples[i]
	})
	return d
}

// ImageTask generates a c×h×w synthetic image-classification task with two
// prototypes per class and the given pixel-noise level, split into train and
// held-out valid samples: both are generated together and split, so they
// share prototypes. It is the one builder behind every image task: a
// scenario spec's data block (noise 0.4 unless data.noise sets it), which a
// TCP worker reads as an in-process run does.
func ImageTask(name string, c, h, w, classes int, noise float64, train, valid int, seed uint64) (tr, va *Dataset) {
	cfg := SynthConfig{Name: name, C: c, H: h, W: w, Classes: classes, PerClass: 2, Noise: noise}
	return split(Synthetic(cfg, train+valid, seed), train)
}

// TinyInputDim is TinyTask's flattened input dimension (1×8×8). Planner-only
// scenario runs derive the model's parameter count from it without ever
// generating the dataset.
const TinyInputDim = 64

// TinyTask returns a small low-dimensional task for fast unit tests: 8×8×1,
// nclasses classes.
func TinyTask(n, nclasses int, seed uint64) (tr, va *Dataset) {
	cfg := SynthConfig{Name: "tiny", C: 1, H: 8, W: 8, Classes: nclasses, PerClass: 1, Noise: 0.25}
	return split(Synthetic(cfg, n+n/4, seed), n)
}

func split(d *Dataset, train int) (tr, va *Dataset) {
	if train > len(d.Samples) {
		train = len(d.Samples)
	}
	tr = &Dataset{Name: d.Name, C: d.C, H: d.H, W: d.W, Classes: d.Classes, Samples: d.Samples[:train]}
	va = &Dataset{Name: d.Name + "-valid", C: d.C, H: d.H, W: d.W, Classes: d.Classes, Samples: d.Samples[train:]}
	return tr, va
}
