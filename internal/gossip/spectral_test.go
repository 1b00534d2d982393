// The test oracle for Algorithm 3's mixing: the eigenvalue quantities that
// SAPS-PSGD's convergence theory depends on. Assumption 3 requires the second
// largest eigenvalue ρ of E[WᵀW] to be strictly below 1, and Lemma 2 predicts
// that masked gossip contracts disagreement at rate (q + p·ρ²) per round.
// Nothing outside the tests computes them.
package gossip

import (
	"math"

	"sapspsgd/internal/graph"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// PowerIteration returns the dominant eigenvalue and eigenvector of the
// symmetric matrix a, using iters rounds of power iteration starting from a
// deterministic pseudo-random vector. The eigenvector is unit-norm.
func PowerIteration(a *tensor.Matrix, iters int) (float64, []float64) {
	return powerDeflated(a, iters, nil)
}

// powerDeflated runs power iteration while continuously re-orthogonalizing
// against the given (unit-norm) vectors, computing the dominant eigenpair of
// a restricted to their orthogonal complement.
func powerDeflated(a *tensor.Matrix, iters int, against [][]float64) (float64, []float64) {
	return powerDeflatedOp(a.Rows, func(dst, src []float64) {
		for i := range dst {
			dst[i] = tensor.Dot(a.Row(i), src)
		}
	}, iters, against)
}

// powerDeflatedOp is powerDeflated over an abstract symmetric operator:
// apply must write the operator applied to src into dst (the slices never
// alias). This lets large-N callers supply an O(N) matvec and skip the dense
// matrix entirely.
func powerDeflatedOp(n int, apply func(dst, src []float64), iters int, against [][]float64) (float64, []float64) {
	if n == 0 {
		return 0, nil
	}
	r := rng.New(0x5eed)
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	orthogonalize(v, against)
	normalize(v)
	lambda := 0.0
	w := make([]float64, n)
	tmp := make([]float64, n)
	for it := 0; it < iters; it++ {
		apply(w, v)
		orthogonalize(w, against)
		nw := math.Sqrt(tensor.Dot(w, w))
		if nw == 0 {
			return 0, v
		}
		scale(1/nw, w)
		apply(tmp, w)
		lambda = tensor.Dot(w, tmp)
		v, w = w, v
	}
	return lambda, v
}

// SecondLargestEigenvalue returns the second largest eigenvalue (by absolute
// value among the remainder after deflating the dominant one) of the
// symmetric matrix a.
func SecondLargestEigenvalue(a *tensor.Matrix, iters int) float64 {
	_, v1 := powerDeflated(a, iters, nil)
	l2, _ := powerDeflated(a, iters, [][]float64{v1})
	return l2
}

// RhoOfExpectedWtW returns ρ: the second largest eigenvalue of E[WᵀW], where
// the expectation is the arithmetic mean over the sampled gossip matrices.
// For the doubly stochastic W the dominant eigenpair is (1, 1/√n); ρ < 1
// certifies Assumption 3 (the PC edges form a connected graph).
func RhoOfExpectedWtW(ws []*tensor.Matrix, iters int) float64 {
	if len(ws) == 0 {
		return math.NaN()
	}
	n := ws[0].Rows
	e := tensor.NewMatrix(n, n)
	for _, w := range ws {
		wt := tensor.NewMatrix(w.Cols, w.Rows)
		tensor.TransposeInto(wt, w)
		wtw := tensor.NewMatrix(n, n)
		tensor.MatMulInto(wtw, wt, w)
		tensor.Axpy(1/float64(len(ws)), wtw.Data, e.Data)
	}
	// Deflate the known dominant eigenvector 1/√n exactly rather than
	// estimating it: doubly stochastic WᵀW always fixes the uniform vector.
	one := make([]float64, n)
	for i := range one {
		one[i] = 1 / math.Sqrt(float64(n))
	}
	l2, _ := powerDeflated(e, iters, [][]float64{one})
	return l2
}

// RhoOfMatchings is RhoOfExpectedWtW computed matrix-free from the sampled
// matchings themselves. A matching's gossip matrix is symmetric and
// idempotent (WᵀW = W² = W), so E[WᵀW] equals the arithmetic mean of the
// matching operators, and each power-iteration step costs O(samples·N)
// with no N×N matrix anywhere — the form that scales to 50k-node fleets.
func RhoOfMatchings(ms []graph.Matching, iters int) float64 {
	if len(ms) == 0 {
		return math.NaN()
	}
	n := len(ms[0])
	scale := 1 / float64(len(ms))
	apply := func(dst, src []float64) {
		for i := range dst {
			dst[i] = 0
		}
		for _, m := range ms {
			for v, p := range m {
				if p == -1 {
					dst[v] += float64(scale * src[v])
				} else {
					dst[v] += float64(scale * 0.5 * (src[v] + src[p]))
				}
			}
		}
	}
	one := make([]float64, n)
	for i := range one {
		one[i] = 1 / math.Sqrt(float64(n))
	}
	l2, _ := powerDeflatedOp(n, apply, iters, [][]float64{one})
	return l2
}

// MixingRate returns the per-round contraction factor (q + p·ρ²) of Lemma 2
// for mask keep-probability p = 1/c and gossip spectral value ρ.
func MixingRate(p, rho float64) float64 {
	q := 1 - p
	return q + float64(p*rho*rho)
}

func orthogonalize(v []float64, against [][]float64) {
	for _, u := range against {
		tensor.Axpy(-tensor.Dot(v, u), u, v)
	}
}

func normalize(v []float64) {
	if n := math.Sqrt(tensor.Dot(v, v)); n > 0 {
		scale(1/n, v)
	}
}

// scale multiplies every element of v by a in place.
func scale(a float64, v []float64) {
	for i := range v {
		v[i] *= a
	}
}
