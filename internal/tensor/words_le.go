//go:build (386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) && !purego

package tensor

import "unsafe"

// On these little-endian targets a vector's memory is its words' bytes in
// the order words.go defines, so encoding and decoding are one copy each —
// bit for bit what putWordsLoop and getWordsLoop produce, NaN payloads and
// the sign of zero included. This is the one file of the package that
// imports unsafe.

// wordBytes views v's storage as its 8·len(v) bytes.
func wordBytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

func putWords(out []byte, v []float64) { copy(out, wordBytes(v)) }

func getWords(dst []float64, b []byte) { copy(wordBytes(dst), b) }
