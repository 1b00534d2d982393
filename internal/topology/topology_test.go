package topology

import (
	"testing"

	"sapspsgd/internal/netsim"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

func TestRing(t *testing.T) {
	tp := Ring(8)
	if tp.G.EdgeCount() != 8 || !tp.G.IsConnected() {
		t.Fatalf("ring: %d edges", tp.G.EdgeCount())
	}
	for v := 0; v < 8; v++ {
		if len(tp.G.Neighbors(v)) != 2 {
			t.Fatalf("ring degree at %d", v)
		}
	}
}

func TestTorus(t *testing.T) {
	tp := Torus(3, 4)
	if tp.G.N != 12 || !tp.G.IsConnected() {
		t.Fatal("torus shape")
	}
	for v := 0; v < 12; v++ {
		if len(tp.G.Neighbors(v)) != 4 {
			t.Fatalf("torus degree %d at %d", len(tp.G.Neighbors(v)), v)
		}
	}
}

func TestHypercube(t *testing.T) {
	tp := Hypercube(4)
	if tp.G.N != 16 || !tp.G.IsConnected() {
		t.Fatal("hypercube shape")
	}
	for v := 0; v < 16; v++ {
		if len(tp.G.Neighbors(v)) != 4 {
			t.Fatal("hypercube degree")
		}
	}
	// Neighbors differ in exactly one bit.
	for v := 0; v < 16; v++ {
		for _, u := range tp.G.Neighbors(v) {
			x := uint(v ^ u)
			if x&(x-1) != 0 {
				t.Fatalf("edge %d-%d differs in >1 bit", v, u)
			}
		}
	}
}

func TestRandomRegular(t *testing.T) {
	r := rng.New(5)
	tp := RandomRegular(16, 3, r)
	if !tp.G.IsConnected() {
		t.Fatal("not connected")
	}
	for v := 0; v < 16; v++ {
		if len(tp.G.Neighbors(v)) != 3 {
			t.Fatalf("degree %d at %d", len(tp.G.Neighbors(v)), v)
		}
	}
}

func TestRandomRegularBadArgsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd n·d")
		}
	}()
	RandomRegular(5, 3, rng.New(1))
}

func TestMetropolisWDoublyStochastic(t *testing.T) {
	r := rng.New(7)
	tops := []Topology{
		Ring(9),
		Torus(3, 3),
		Hypercube(3),
		RandomRegular(12, 3, r),
	}
	for _, tp := range tops {
		w := MetropolisW(tp)
		if !w.IsDoublyStochastic(1e-12) {
			t.Fatalf("%s: MetropolisW not doubly stochastic", tp.Name)
		}
		// Symmetry.
		for i := 0; i < w.Rows; i++ {
			for j := 0; j < w.Cols; j++ {
				if w.At(i, j) != w.At(j, i) {
					t.Fatalf("%s: asymmetric at (%d,%d)", tp.Name, i, j)
				}
			}
		}
	}
}

func TestMeanLinkBandwidthAndTraffic(t *testing.T) {
	bw := netsim.RandomUniform(8, 1, 5, rng.New(2))
	tp := Ring(8)
	m := MeanLinkBandwidth(tp, bw)
	if m <= 0 || m > 5 {
		t.Fatalf("mean link bandwidth %v", m)
	}
	if got := PerWorkerTrafficPerRound(tp, 0); got != 4 {
		t.Fatalf("ring per-round payloads = %d, want 4", got)
	}
	if got := PerWorkerTrafficPerRound(Hypercube(3), 0); got != 6 {
		t.Fatalf("hypercube payloads = %d, want 6", got)
	}
}

func TestGossipConsensusOnTopologies(t *testing.T) {
	// Iterating x ← Wx on any connected topology must contract disagreement.
	r := rng.New(11)
	for _, tp := range []Topology{Ring(12), Torus(3, 4), Hypercube(3)} {
		w := MetropolisW(tp)
		x := make([]float64, tp.G.N)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		dis := func(x []float64) float64 {
			m := tensor.Mean(x)
			s := 0.0
			for _, v := range x {
				s += (v - m) * (v - m)
			}
			return s
		}
		d0 := dis(x)
		for it := 0; it < 200; it++ {
			x = tensor.MatVec(w, x)
		}
		if dis(x) > d0*1e-6 {
			t.Fatalf("%s: consensus not reached (%v -> %v)", tp.Name, d0, dis(x))
		}
	}
}
