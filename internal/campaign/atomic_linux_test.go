package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestWriteFileAtomicFailedWriteKeepsOld: when the new bytes cannot be
// written in full (here the process's file-size limit refuses them),
// writeFileAtomic returns the error, the previous artifact stays under its
// name, and no temp file is left behind.
func TestWriteFileAtomicFailedWriteKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "aggregate.json")
	old := []byte("{\"cells\": 1}\n")
	if err := writeFileAtomic(path, old); err != nil {
		t.Fatal(err)
	}

	var saved syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &saved); err != nil {
		t.Fatal(err)
	}
	limit := saved
	limit.Cur = 64
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Skipf("cannot lower the file-size limit: %v", err)
	}
	err := writeFileAtomic(path, bytes.Repeat([]byte{'x'}, 4096))
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &saved); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatal("a 4096-byte artifact written under a 64-byte file-size limit")
	}
	if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, old) {
		t.Fatalf("after the failed write the artifact reads %q, %v; want %q", got, rerr, old)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("the failed write left %d files in the directory, want only the old artifact", len(entries))
	}
}
