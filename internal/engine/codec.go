package engine

import (
	"fmt"

	"sapspsgd/internal/compress"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// Codec encodes a node's round payload (a model, gradient, or delta vector)
// into wire words and decodes a peer's words back into the vector the
// algorithm consumes. Every Transport carries []float64 words; WireBytes
// reports the exact number of bytes the encoding would occupy on a physical
// wire (float32 values, 32-bit indices, bit-packed quantization codes), which
// is what the Ledger is charged with. The []float64 carrier may hold a small
// header (dimension, entry count) that a production framing layer would carry
// implicitly; headers are never charged.
//
// Contracts:
//
//   - Encode may keep per-sender state (error feedback residuals, RNG
//     streams) and may reuse an internal buffer: the returned words stay
//     valid until the next Encode call on the same codec. Patterns that
//     encode more than once per round must copy before handing words to a
//     Transport.
//   - Decode and WireBytes must be stateless and safe for concurrent use:
//     receivers decode with the *sender's* codec instance (from the shared
//     per-rank codec table), potentially from many goroutines at once.
type Codec interface {
	// Name identifies the codec family ("dense", "topk", ...).
	Name() string
	// Encode packs dense into wire words.
	Encode(ctx RoundContext, dense []float64) ([]float64, error)
	// Decode unpacks words into the algorithm-facing vector. The exact
	// semantics are codec-specific and documented per codec: dense and
	// masked codecs return the packed values unchanged; sparse and
	// quantized codecs expand to a dense vector.
	Decode(ctx RoundContext, words []float64) ([]float64, error)
	// WireBytes is the exact physical wire size of an encoded payload.
	WireBytes(words []float64) int64
}

// DecoderInto is the optional Codec extension the sharded runtime's hot path
// uses to decode without allocating: DecodeInto behaves exactly like Decode
// but expands into dst (grown as needed — the returned slice may alias
// dst's storage), so a caller that reuses its scratch buffer decodes
// allocation-free in steady state. Like Decode it must be stateless and safe
// for concurrent use: receivers decode with the sender's codec instance, and
// only dst is caller-owned. Codecs whose Decode is the identity (dense,
// masked) deliberately do not implement it — returning the received words
// unchanged is already allocation-free.
type DecoderInto interface {
	DecodeInto(dst []float64, ctx RoundContext, words []float64) ([]float64, error)
}

// ---------------------------------------------------------------------------
// Dense

// Dense is the identity codec: every value crosses the wire as a float32.
// Decode returns the received words unchanged.
type Dense struct{}

// Name implements Codec.
func (Dense) Name() string { return "dense" }

// Encode implements Codec (identity: the caller's vector is the payload).
func (Dense) Encode(_ RoundContext, dense []float64) ([]float64, error) { return dense, nil }

// Decode implements Codec.
func (Dense) Decode(_ RoundContext, words []float64) ([]float64, error) { return words, nil }

// WireBytes implements Codec.
func (Dense) WireBytes(words []float64) int64 { return compress.DenseBytes(len(words)) }

// ---------------------------------------------------------------------------
// Masked (shared-seed sparsification — the SAPS wire format)

// Masked is the paper's shared-seed Bernoulli(1/c) mask sparsifier: both
// endpoints regenerate the identical round mask from the broadcast seed, so
// only the surviving values cross the wire and no indices are transmitted.
// Decode returns the packed masked values unchanged; the receiving node
// regenerates the mask itself to interpret them (core.Worker.RoundMask).
type Masked struct {
	// C is the compression ratio c (mask keep-probability 1/c).
	C float64

	mask    []int32
	payload []float64
	cache   *compress.MaskCache
}

// NewMasked returns a shared-seed mask codec with ratio c.
func NewMasked(c float64) *Masked {
	if c < 1 {
		panic(fmt.Sprintf("engine: masked codec ratio %v < 1", c))
	}
	return &Masked{C: c}
}

// NewMaskedShared returns a masked codec whose round masks come from a
// fleet-shared cache instead of per-codec scratch: every rank hosted in the
// same process regenerates one mask per round between them. Bit-identical to
// NewMasked (the mask is a pure function of seed, round, n, c).
func NewMaskedShared(c float64, mc *compress.MaskCache) *Masked {
	m := NewMasked(c)
	m.cache = mc
	return m
}

// Name implements Codec.
func (m *Masked) Name() string { return "masked" }

// Encode implements Codec: regenerate the round mask's positions from
// (seed, round) and gather the surviving values.
func (m *Masked) Encode(ctx RoundContext, dense []float64) ([]float64, error) {
	if m.cache != nil {
		m.mask = m.cache.Get(ctx.Seed, ctx.Round, len(dense), m.C)
	} else {
		m.mask = compress.MaskIndices(m.mask, ctx.Seed, ctx.Round, len(dense), m.C)
	}
	m.payload = compress.ExtractInto(m.payload, dense, m.mask)
	return m.payload, nil
}

// Decode implements Codec (identity: packed masked values).
func (m *Masked) Decode(_ RoundContext, words []float64) ([]float64, error) { return words, nil }

// WireBytes implements Codec: values only — the support travels as the
// 64-bit seed inside the control message.
func (m *Masked) WireBytes(words []float64) int64 { return compress.MaskedBytes(len(words)) }

// ---------------------------------------------------------------------------
// Sparse wire words (shared by TopK and RandomK)

// packSparse lays a sparse vector out as [dim, k, idx..., val...]. Values ship
// as v + 0 (-0 becomes +0): no sum of payloads then holds a -0, the only
// accumulator that AddSparse's skipping of off-support zeros would change.
func packSparse(dst []float64, sv compress.SparseVec) []float64 {
	k := len(sv.Idx)
	dst = dst[:0]
	dst = append(dst, float64(sv.N), float64(k))
	for _, idx := range sv.Idx {
		dst = append(dst, float64(idx))
	}
	for _, v := range sv.Val {
		dst = append(dst, v+0)
	}
	return dst
}

// SparseWords parses the sparse wire layout [dim, k, idx..., val...] used by
// the top-k and random-k codecs. The returned index and value slices alias
// words. Nodes that need the explicit support (e.g. the S-FedAvg server's
// count-normalized aggregation) parse PeerMsg.Words with this.
func SparseWords(words []float64) (dim int, idx []float64, vals []float64, err error) {
	if len(words) < 2 {
		return 0, nil, nil, fmt.Errorf("engine: sparse payload of %d words", len(words))
	}
	dim = int(words[0])
	k := int(words[1])
	if k < 0 || len(words) != 2+2*k {
		return 0, nil, nil, fmt.Errorf("engine: sparse payload k=%d with %d words", k, len(words))
	}
	return dim, words[2 : 2+k], words[2+k:], nil
}

// decodeSparseInto expands sparse words into dst (grown as needed).
func decodeSparseInto(dst []float64, words []float64) ([]float64, error) {
	dim, idx, vals, err := SparseWords(words)
	if err != nil {
		return nil, err
	}
	out := resizeZeroed(dst, dim)
	for i, ix := range idx {
		j := int(ix)
		if j < 0 || j >= dim {
			return nil, fmt.Errorf("engine: sparse index %d out of %d", j, dim)
		}
		out[j] = vals[i]
	}
	return out, nil
}

// AddSparse adds a sparse payload into acc straight from its wire words, with
// decodeSparseInto's checks plus dim == len(acc): the dense add of its decode
// minus the zeros. (A repeated index, which no codec sends, is added twice.)
func AddSparse(acc, words []float64) error { return addSparseRange(acc, 0, len(acc), words) }

// addSparseRange is AddSparse writing only acc[lo:hi]: every index is still
// checked, and the entries outside [lo, hi) are skipped.
func addSparseRange(acc []float64, lo, hi int, words []float64) error {
	dim, idx, vals, err := SparseWords(words)
	if err != nil {
		return err
	}
	if dim != len(acc) {
		return fmt.Errorf("engine: sparse payload of dimension %d added to %d values", dim, len(acc))
	}
	for i, ix := range idx {
		j := int(ix)
		if j < 0 || j >= dim {
			return fmt.Errorf("engine: sparse index %d out of %d", j, dim)
		}
		if j >= lo && j < hi {
			acc[j] += vals[i]
		}
	}
	return nil
}

// resizeZeroed returns a zeroed length-n slice, reusing dst's storage when it
// is large enough.
func resizeZeroed(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	return dst
}

// sparseWireBytes charges k (index, value) pairs, ignoring the carrier
// header.
func sparseWireBytes(words []float64) int64 {
	if len(words) < 2 {
		return 0
	}
	return compress.SparseBytes(int(words[1]))
}

// ---------------------------------------------------------------------------
// TopK (with optional error feedback)

// TopK transmits the K largest-magnitude entries with explicit 32-bit
// indices (8 wire bytes per entry). With EF set, dropped coordinates
// accumulate in an error-feedback residual and are retried next round
// (DGC-style) — required for convergence when compressing gradients.
// Decode expands to a dense vector (zeros off-support).
type TopK struct {
	K     int
	useEF bool
	ef    *compress.ErrorFeedback

	out   compress.SparseVec
	mags  []float64
	words []float64
}

// NewTopK returns a top-k codec for dim-dimensional vectors; ef selects
// error feedback. The residual buffer is allocated lazily on first Encode,
// so the per-rank codec tables every process builds (for decoding) carry no
// dead encoder state for the other ranks.
func NewTopK(k, dim int, ef bool) *TopK {
	if k < 1 {
		panic(fmt.Sprintf("engine: topk codec k=%d", k))
	}
	return &TopK{K: k, useEF: ef}
}

// Name implements Codec.
func (t *TopK) Name() string { return "topk" }

// Encode implements Codec.
func (t *TopK) Encode(_ RoundContext, dense []float64) ([]float64, error) {
	var sv compress.SparseVec
	if t.useEF {
		if t.ef == nil {
			t.ef = compress.NewErrorFeedback(len(dense))
		}
		sv = t.ef.CompressTopK(dense, t.K)
	} else {
		t.mags = compress.TopKInto(&t.out, t.mags, dense, t.K)
		sv = t.out
	}
	t.words = packSparse(t.words, sv)
	return t.words, nil
}

// Decode implements Codec.
func (t *TopK) Decode(_ RoundContext, words []float64) ([]float64, error) {
	return decodeSparseInto(nil, words)
}

// DecodeInto implements DecoderInto: Decode into caller-owned scratch.
func (t *TopK) DecodeInto(dst []float64, _ RoundContext, words []float64) ([]float64, error) {
	return decodeSparseInto(dst, words)
}

// WireBytes implements Codec.
func (t *TopK) WireBytes(words []float64) int64 { return sparseWireBytes(words) }

// AppendState implements Stateful: the error-feedback residual is the
// only cross-round state, one vector of raw words — empty when error
// feedback is disabled or no Encode has run yet (the residual allocates
// lazily).
func (t *TopK) AppendState(dst []byte) ([]byte, error) {
	var residual []float64
	if t.ef != nil {
		residual = t.ef.Residual()
	}
	return tensor.AppendVector(tensor.Grow(dst, tensor.SectionSize(8*len(residual))), residual), nil
}

// RestoreState implements Stateful.
func (t *TopK) RestoreState(data []byte) error {
	sec, rest, err := tensor.CutSection(data)
	if err == nil {
		err = tensor.NoMoreSections(rest)
	}
	var residual []float64
	if err == nil {
		residual, err = tensor.Words(sec)
	}
	if err != nil {
		return fmt.Errorf("engine: topk snapshot: %w", err)
	}
	if residual == nil {
		t.ef = nil
		return nil
	}
	if !t.useEF {
		return fmt.Errorf("engine: topk snapshot carries a residual but error feedback is disabled")
	}
	if t.ef == nil || len(t.ef.Residual()) != len(residual) {
		t.ef = compress.NewErrorFeedback(len(residual))
	}
	t.ef.SetResidual(residual)
	return nil
}

// ---------------------------------------------------------------------------
// RandomK

// RandomK transmits a uniformly random K-subset of coordinates with explicit
// indices (the S-FedAvg "random structured update"). Decode expands to a
// dense vector; servers needing the support parse PeerMsg.Words with
// SparseWords.
type RandomK struct {
	K   int
	rnd *rng.Source

	out    compress.SparseVec
	chosen []uint64 // the support bitset
	words  []float64
}

// NewRandomK returns a random-k codec drawing from the given seed.
func NewRandomK(k int, seed uint64) *RandomK {
	if k < 1 {
		panic(fmt.Sprintf("engine: randomk codec k=%d", k))
	}
	return &RandomK{K: k, rnd: rng.New(seed)}
}

// Name implements Codec.
func (r *RandomK) Name() string { return "randomk" }

// Encode implements Codec. The support bitset, sparse vector, and wire
// buffer are codec-owned and reused, so the steady state allocates nothing.
func (r *RandomK) Encode(_ RoundContext, dense []float64) ([]float64, error) {
	compress.RandomKInto(&r.out, &r.chosen, dense, r.K, r.rnd)
	r.words = packSparse(r.words, r.out)
	return r.words, nil
}

// Decode implements Codec.
func (r *RandomK) Decode(_ RoundContext, words []float64) ([]float64, error) {
	return decodeSparseInto(nil, words)
}

// DecodeInto implements DecoderInto: Decode into caller-owned scratch.
func (r *RandomK) DecodeInto(dst []float64, _ RoundContext, words []float64) ([]float64, error) {
	return decodeSparseInto(dst, words)
}

// WireBytes implements Codec.
func (r *RandomK) WireBytes(words []float64) int64 { return sparseWireBytes(words) }

// AppendState implements Stateful: the support-drawing RNG cursor, in
// rng.State's fixed words.
func (r *RandomK) AppendState(dst []byte) ([]byte, error) { return appendRNG(dst, r.rnd.State()), nil }

// RestoreState implements Stateful.
func (r *RandomK) RestoreState(data []byte) error {
	st, err := restoreRNG("randomk", data)
	if err == nil {
		r.rnd.SetState(st)
	}
	return err
}

// ---------------------------------------------------------------------------
// QSGD

// QSGDCodec stochastically quantizes every coordinate to one of 2s+1 signed
// levels (Alistarh et al.); the wire carries a 4-byte l2 norm plus
// bit-packed level codes. Decode reconstructs the unbiased dense estimate.
type QSGDCodec struct {
	Levels int

	q     *compress.QSGD
	words []float64
}

// NewQSGDCodec returns a quantizing codec with the given level count and
// stochastic-rounding seed.
func NewQSGDCodec(levels int, seed uint64) *QSGDCodec {
	return &QSGDCodec{Levels: levels, q: compress.NewQSGD(levels, seed)}
}

// Name implements Codec.
func (q *QSGDCodec) Name() string { return "qsgd" }

// Encode implements Codec. Words layout: [norm, code...]. The quantizer
// writes codes straight into the codec's reused wire buffer — no
// intermediate integer-code vector — so the steady state allocates nothing.
func (q *QSGDCodec) Encode(_ RoundContext, dense []float64) ([]float64, error) {
	q.words = q.q.AppendQuantized(q.words, dense)
	return q.words, nil
}

// Decode implements Codec.
func (q *QSGDCodec) Decode(_ RoundContext, words []float64) ([]float64, error) {
	return q.DecodeInto(nil, RoundContext{}, words)
}

// DecodeInto implements DecoderInto: Decode into caller-owned scratch.
func (q *QSGDCodec) DecodeInto(dst []float64, _ RoundContext, words []float64) ([]float64, error) {
	if len(words) < 1 {
		return nil, fmt.Errorf("engine: qsgd payload of %d words", len(words))
	}
	norm := words[0]
	if norm == 0 {
		return resizeZeroed(dst, len(words)-1), nil
	}
	if cap(dst) < len(words)-1 {
		dst = make([]float64, len(words)-1)
	}
	out := dst[:len(words)-1]
	s := float64(q.Levels)
	codes := words[1:]
	n := len(codes) &^ 3
	for i := 0; i < n; i += 4 {
		out[i] = norm * codes[i] / s
		out[i+1] = norm * codes[i+1] / s
		out[i+2] = norm * codes[i+2] / s
		out[i+3] = norm * codes[i+3] / s
	}
	for i := n; i < len(codes); i++ {
		out[i] = norm * codes[i] / s
	}
	return out, nil
}

// WireBytes implements Codec: the norm plus bit-packed codes
// (compress.QuantizedWireBytes).
func (q *QSGDCodec) WireBytes(words []float64) int64 {
	if len(words) < 1 {
		return 0
	}
	return compress.QuantizedWireBytes(len(words)-1, q.Levels)
}

// AppendState implements Stateful: the stochastic-rounding RNG cursor,
// in rng.State's fixed words.
func (q *QSGDCodec) AppendState(dst []byte) ([]byte, error) {
	return appendRNG(dst, q.q.RNGState()), nil
}

// RestoreState implements Stateful.
func (q *QSGDCodec) RestoreState(data []byte) error {
	st, err := restoreRNG("qsgd", data)
	if err == nil {
		q.q.SetRNGState(st)
	}
	return err
}

// appendRNG appends a codec blob that holds one RNG cursor and nothing else.
func appendRNG(dst []byte, st rng.State) []byte { return st.AppendTo(tensor.Grow(dst, rng.StateSize)) }

// restoreRNG reads a blob appendRNG wrote, which must be all of data.
func restoreRNG(codec string, data []byte) (rng.State, error) {
	st, rest, err := rng.ReadState(data)
	if err == nil {
		err = tensor.NoMoreSections(rest)
	}
	if err != nil {
		return rng.State{}, fmt.Errorf("engine: %s snapshot: %w", codec, err)
	}
	return st, nil
}
