package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// This file is the one place a vector of words becomes bytes and back: eight
// bytes a word, little-endian — a float64's IEEE-754 bit pattern, so NaN
// payloads and the sign of zero survive, or an integer's two's complement.
// State blobs, snapshot files, peer and control frames and the collected
// model all go through it. Around the words, a section is a run of bytes
// behind its own 8-byte little-endian length, which is how a blob holds
// several vectors (and small opaque fields) in a row.

// sectionHeader is the size of a section's length prefix.
const sectionHeader = 8

// AppendWords appends v's words to dst, 8·len(v) bytes and nothing else.
func AppendWords(dst []byte, v []float64) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8*len(v))[:n+8*len(v)]
	putWords(dst[n:], v)
	return dst
}

// DecodeWords fills dst from b, which must hold exactly len(dst) words.
func DecodeWords(dst []float64, b []byte) error {
	if len(b) != 8*len(dst) {
		return fmt.Errorf("tensor: %d bytes for %d words", len(b), len(dst))
	}
	getWords(dst, b)
	return nil
}

// putWordsLoop and getWordsLoop are the word layout's definition, one word
// at a time. On a little-endian target a float64's memory is already its
// eight bytes in this order, so words_le.go copies the whole vector at once
// instead; these loops stay as the oracle it is fuzzed against
// (FuzzWordsMatchLoop), the path on big-endian targets and the whole path
// under the purego build tag. Both take exactly sized operands:
// len(out) == 8·len(v), len(b) == 8·len(dst).
func putWordsLoop(out []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
}

func getWordsLoop(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// Words decodes all of b into a new vector; no bytes decode as nil.
func Words(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("tensor: %d bytes are not whole words", len(b))
	}
	if len(b) == 0 {
		return nil, nil
	}
	v := make([]float64, len(b)/8)
	return v, DecodeWords(v, b)
}

// AppendInts appends v as 8·len(v) bytes of two's-complement little-endian
// words: how counters and cursors become bytes.
func AppendInts[T ~int | ~int64](dst []byte, v []T) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
	}
	return dst
}

// DecodeInts fills dst from b, which must hold exactly len(dst) words.
func DecodeInts[T ~int | ~int64](dst []T, b []byte) error {
	if len(b) != 8*len(dst) {
		return fmt.Errorf("tensor: %d bytes for %d words", len(b), len(dst))
	}
	for i := range dst {
		dst[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}

// Grow returns dst with room for n more bytes behind its length, making it
// in one exactly sized allocation when there is too little — how a state
// blob is sized before its sections are appended. (slices.Grow rounds the
// room up and, under the race detector, allocates it twice.)
func Grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n), dst...)
}

// SectionSize is the number of bytes a section with an n-byte body occupies.
func SectionSize(n int) int { return sectionHeader + n }

// BeginSection appends the length prefix of a section whose n body bytes the
// caller appends next.
func BeginSection(dst []byte, n int) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(n))
}

// AppendSection appends body as one section.
func AppendSection(dst, body []byte) []byte {
	return append(BeginSection(dst, len(body)), body...)
}

// AppendVector appends v's words as one section.
func AppendVector(dst []byte, v []float64) []byte {
	return AppendWords(BeginSection(dst, 8*len(v)), v)
}

// AppendIntVector appends v's words as one section.
func AppendIntVector[T ~int | ~int64](dst []byte, v []T) []byte {
	return AppendInts(BeginSection(dst, 8*len(v)), v)
}

// NoMoreSections is the error for bytes left over behind the last section a
// reader expected, nil when there are none.
func NoMoreSections(rest []byte) error {
	if len(rest) != 0 {
		return fmt.Errorf("tensor: %d bytes follow the last section", len(rest))
	}
	return nil
}

// CutSection splits the first section's body off b. The body aliases b. A
// length that runs past the end of b is an error, found before anything is
// allocated for it.
func CutSection(b []byte) (body, rest []byte, err error) {
	if len(b) < sectionHeader {
		return nil, nil, fmt.Errorf("tensor: %d bytes where a section length was expected", len(b))
	}
	n := binary.LittleEndian.Uint64(b)
	if n > uint64(len(b)-sectionHeader) {
		return nil, nil, fmt.Errorf("tensor: section declares %d bytes, %d remain", n, len(b)-sectionHeader)
	}
	end := sectionHeader + int(n)
	return b[sectionHeader:end:end], b[end:], nil
}
