//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) || purego

package tensor

func putWords(out []byte, v []float64) { putWordsLoop(out, v) }

func getWords(dst []float64, b []byte) { getWordsLoop(dst, b) }
