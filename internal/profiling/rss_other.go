//go:build !linux

package profiling

import "runtime"

// PeakRSS approximates the process's peak resident memory on platforms
// without /proc: runtime.MemStats.Sys is the address space obtained from
// the OS — an upper-bound proxy for the true high-water mark that still
// catches an accidental O(N²) blow-up.
func PeakRSS() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// ResetPeakRSS is a no-op without kernel support; readings stay monotone
// within the process (conservative, never under-reported).
func ResetPeakRSS() {}
