package engine_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"sapspsgd/internal/engine"
)

// limitedCommitDir names, in a child process of the test binary, the
// directory whose artifact TestCommitFileFailedWriteKeepsOld's child
// overwrites under a lowered file-size limit.
const limitedCommitDir = "ENGINE_TEST_LIMITED_COMMIT_DIR"

// TestCommitFileFailedWriteKeepsOld: when the new bytes cannot be written in
// full (here the process's file-size limit refuses them), CommitFile returns
// the error, the previous content stays under its name, and no temp file is
// left behind. The commit runs in a child process: the limit is
// process-wide, and lowered here it would also refuse the test log `go test`
// has this process write.
func TestCommitFileFailedWriteKeepsOld(t *testing.T) {
	if dir := os.Getenv(limitedCommitDir); dir != "" {
		commitUnderLimit(t, filepath.Join(dir, "aggregate.json"))
		return
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "aggregate.json")
	old := []byte("{\"cells\": 1}\n")
	if err := engine.CommitFile(path, old); err != nil {
		t.Fatal(err)
	}

	child := exec.Command(os.Args[0], "-test.run=^TestCommitFileFailedWriteKeepsOld$", "-test.v")
	child.Env = append(os.Environ(), limitedCommitDir+"="+dir)
	out, err := child.CombinedOutput()
	switch {
	case err != nil:
		t.Fatalf("the commit under a lowered file-size limit: %v\n%s", err, out)
	case strings.Contains(string(out), "--- SKIP"):
		t.Skipf("the child process skipped:\n%s", out)
	}
	if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, old) {
		t.Fatalf("after the failed commit the file reads %q, %v; want %q", got, rerr, old)
	}
	onlyEntries(t, dir, "aggregate.json")
}

// commitUnderLimit is the child's half: it lowers the file-size limit to 64
// bytes and commits 4096 to path, which must fail.
func commitUnderLimit(t *testing.T, path string) {
	var limit syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Fatal(err)
	}
	limit.Cur = 64
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Skipf("cannot lower the file-size limit: %v", err)
	}
	if err := engine.CommitFile(path, bytes.Repeat([]byte{'x'}, 4096)); err == nil {
		t.Fatalf("4096 bytes committed under a %d-byte file-size limit", limit.Cur)
	}
}
