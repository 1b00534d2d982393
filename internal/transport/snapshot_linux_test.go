package transport

import (
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// TestSaveWorkerSnapshotFailedWriteKeepsOld: when the new frame cannot be
// written in full (here the process's file-size limit refuses it),
// SaveWorkerSnapshot returns the error, leaves the previous snapshot under
// path still loadable, and leaves no temp file behind. A save that swallowed
// the error would rename the torn temp file over the good snapshot, and the
// worker could no longer resume.
func TestSaveWorkerSnapshotFailedWriteKeepsOld(t *testing.T) {
	dir := t.TempDir()
	ws, intact := intactWorkerSnapshot(t, dir)
	path := filepath.Join(dir, "intact.snap")

	var saved syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &saved); err != nil {
		t.Fatal(err)
	}
	limit := saved
	limit.Cur = uint64(len(intact) / 2)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Skipf("cannot lower the file-size limit: %v", err)
	}
	next := *ws
	next.NextRound++
	err := SaveWorkerSnapshot(path, &next)
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &saved); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatalf("a %d-byte snapshot saved under a %d-byte file-size limit", len(intact), limit.Cur)
	}
	if got, lerr := LoadWorkerSnapshot(path); lerr != nil || !reflect.DeepEqual(got, ws) {
		t.Fatalf("after the failed save the old snapshot loads as %+v, %v; want %+v", got, lerr, ws)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("the failed save left %d files in the directory, want only the old snapshot", len(entries))
	}
}
