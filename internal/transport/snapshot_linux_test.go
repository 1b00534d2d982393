package transport

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
)

// limitedSaveDir names, in a child process of the test binary, the
// directory whose snapshot TestSaveWorkerSnapshotFailedWriteKeepsOld's
// child overwrites under a lowered file-size limit.
const limitedSaveDir = "TRANSPORT_TEST_LIMITED_SAVE_DIR"

// TestSaveWorkerSnapshotFailedWriteKeepsOld: when the new frame cannot be
// written in full (here the process's file-size limit refuses it),
// SaveWorkerSnapshot returns the error, leaves the previous snapshot under
// path still loadable, and leaves no temp file behind. A save that swallowed
// the error would rename the torn temp file over the good snapshot, and the
// worker could no longer resume. The save runs in a child process: the
// limit is process-wide, and lowered here it would also refuse the test
// log `go test` has this process write, whenever that log's buffer happens
// to flush during the save.
func TestSaveWorkerSnapshotFailedWriteKeepsOld(t *testing.T) {
	if dir := os.Getenv(limitedSaveDir); dir != "" {
		saveUnderLimit(t, filepath.Join(dir, "intact.snap"))
		return
	}
	dir := t.TempDir()
	ws, _ := intactWorkerSnapshot(t, dir)
	path := filepath.Join(dir, "intact.snap")

	child := exec.Command(os.Args[0], "-test.run=^TestSaveWorkerSnapshotFailedWriteKeepsOld$", "-test.v")
	child.Env = append(os.Environ(), limitedSaveDir+"="+dir)
	out, err := child.CombinedOutput()
	switch {
	case err != nil:
		t.Fatalf("the save under a lowered file-size limit: %v\n%s", err, out)
	case strings.Contains(string(out), "--- SKIP"):
		t.Skipf("the child process skipped:\n%s", out)
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

// saveUnderLimit is the child's half: it lowers the file-size limit below
// the snapshot at path and saves that snapshot one round on, which must
// fail.
func saveUnderLimit(t *testing.T, path string) {
	ws, err := LoadWorkerSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var limit syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Fatal(err)
	}
	limit.Cur = uint64(fi.Size() / 2)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Skipf("cannot lower the file-size limit: %v", err)
	}
	next := *ws
	next.NextRound++
	if err := SaveWorkerSnapshot(path, &next); err == nil {
		t.Fatalf("a %d-byte snapshot saved under a %d-byte file-size limit", fi.Size(), limit.Cur)
	}
}
