package tensor

import "sync"

// Scratch pool: evaluation and consensus paths repeatedly need
// model-dimension float64 buffers (hundreds of KB each) for a few
// microseconds, and a training step needs a dozen batch-sized matrices for
// the length of one forward/backward. Pooling both by power-of-two size
// class keeps the steady state allocation-free without pinning buffers per
// caller (or per model: a fleet of 512 models shares what two shard
// goroutines have in flight).
//
// One mechanism serves vectors and matrices: a class holds *Matrix values
// whose Data has capacity exactly 1<<class. A pooled vector is such a Matrix
// with its header parked in spare while the caller holds the slice, so
// neither Get/Put pair allocates in steady state.

const poolClasses = 32

var (
	pools [poolClasses]sync.Pool // *Matrix, cap(Data) == 1<<class
	spare sync.Pool              // *Matrix headers whose Data is out with a GetVec caller
)

func classOf(n int) int {
	c := 0
	for s := 1; s < n; s <<= 1 {
		c++
	}
	return c
}

// getRaw returns a Matrix header carrying a buffer of length n and arbitrary
// contents; Rows and Cols are the caller's to set.
func getRaw(n int) *Matrix {
	c := classOf(n)
	if m, ok := pools[c].Get().(*Matrix); ok {
		m.Data = m.Data[:n]
		return m
	}
	return &Matrix{Data: make([]float64, n, 1<<c)}
}

// GetVec returns a zeroed []float64 of length n from the pool (allocating
// when the pool is empty). Return it with PutVec when done.
func GetVec(n int) []float64 {
	out := GetVecRaw(n)
	for i := range out {
		out[i] = 0
	}
	return out
}

// GetVecRaw is GetVec without the zero fill: the contents are arbitrary, for
// callers that overwrite the whole buffer anyway (FlatParams, Sub, ...).
func GetVecRaw(n int) []float64 {
	if n == 0 {
		return nil
	}
	m := getRaw(n)
	v := m.Data
	m.Data = nil
	spare.Put(m)
	return v
}

// PutVec recycles a vector obtained from GetVec. The caller must not use v
// afterwards.
func PutVec(v []float64) {
	m, ok := spare.Get().(*Matrix)
	if !ok {
		m = new(Matrix)
	}
	m.Data = v
	PutMatrix(m)
}

// GetMatrix returns a rows×cols matrix from the pool with ARBITRARY contents:
// the caller writes every element before reading any. Return it with
// PutMatrix; until then nobody else holds it.
func GetMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: invalid matrix size")
	}
	m := getRaw(rows * cols)
	m.Rows, m.Cols = rows, cols
	return m
}

// PutMatrix recycles m's buffer, whoever allocated it. The caller must not
// use m or any Row view of it afterwards. A capacity that is not a class size
// (a NewMatrix buffer, usually) is dropped: filing it under a smaller class
// would waste it, under a larger one it would under-serve.
func PutMatrix(m *Matrix) {
	n := cap(m.Data)
	c := classOf(n)
	if n == 0 || 1<<c != n {
		return
	}
	m.Data = m.Data[:n]
	pools[c].Put(m)
}
