package engine_test

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"sapspsgd/internal/engine"
)

// onlyEntries fails unless dir holds exactly the named entries: a failed
// CommitFile must leave no temp file behind.
func onlyEntries(t *testing.T, dir string, names ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if !slices.Equal(got, names) {
		t.Errorf("%s holds %q, want only %q", dir, got, names)
	}
}

// TestCommitFileParentIsFile: a path whose parent is a regular file fails at
// the temp file's creation with ENOTDIR; the parent keeps its bytes.
// CheckCommit fails there too, and passes beside the parent, leaving nothing.
func TestCommitFileParentIsFile(t *testing.T) {
	dir := t.TempDir()
	parent := filepath.Join(dir, "file")
	if err := engine.CommitFile(parent, []byte("old")); err != nil {
		t.Fatal(err)
	}
	err := engine.CommitFile(filepath.Join(parent, "model.bin"), []byte("new"))
	var perr *os.PathError
	if !errors.As(err, &perr) || !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("commit under a regular file returned %v, want an *os.PathError for ENOTDIR", err)
	}
	if got, rerr := os.ReadFile(parent); rerr != nil || string(got) != "old" {
		t.Errorf("after the failed commit the parent reads %q, %v; want \"old\"", got, rerr)
	}
	onlyEntries(t, dir, "file")
	if err := engine.CheckCommit(filepath.Join(parent, "model.bin")); err == nil {
		t.Error("CheckCommit accepted a path under a regular file")
	}
	if err := engine.CheckCommit(filepath.Join(dir, "model.bin")); err != nil {
		t.Errorf("CheckCommit refused a writable directory: %v", err)
	}
	onlyEntries(t, dir, "file")
}

// TestCommitFileOntoDirectory: a target that is a directory fails at the
// rename with an *os.LinkError; the directory and its contents stay.
func TestCommitFileOntoDirectory(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "cell")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := engine.CommitFile(filepath.Join(target, "cell.json"), []byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	err := engine.CommitFile(target, []byte("new"))
	var lerr *os.LinkError
	if !errors.As(err, &lerr) {
		t.Fatalf("commit onto a directory returned %v, want an *os.LinkError", err)
	}
	if fi, serr := os.Stat(target); serr != nil || !fi.IsDir() {
		t.Errorf("after the failed commit the target stats as %v, %v; want the directory", fi, serr)
	}
	onlyEntries(t, dir, "cell")
	onlyEntries(t, target, "cell.json")
}

// TestCreateTempDirMode: CreateTempDir makes a fresh hidden sibling per call,
// named as CommitFile's temp files are, with the mode of a directory
// os.Mkdir'd beside it with mkdir(1)'s permission — DirMode under whatever
// umask the process runs with.
func TestCreateTempDirMode(t *testing.T) {
	dir := t.TempDir()
	probe := filepath.Join(dir, "probe")
	if err := os.Mkdir(probe, 0o777); err != nil {
		t.Fatal(err)
	}
	want, err := os.Stat(probe)
	if err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(dir, "cell")
	a, err := engine.CreateTempDir(target)
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.CreateTempDir(target)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("two calls returned one directory %s", a)
	}
	for _, tmp := range []string{a, b} {
		if filepath.Dir(tmp) != dir || !strings.HasPrefix(filepath.Base(tmp), ".cell.tmp-") {
			t.Errorf("temp directory %s is not a hidden .cell.tmp-* sibling of %s", tmp, target)
		}
		info, err := os.Stat(tmp)
		if err != nil {
			t.Fatal(err)
		}
		if !info.IsDir() || info.Mode() != want.Mode() {
			t.Errorf("%s has mode %v, an os.Mkdir'd directory beside it %v", tmp, info.Mode(), want.Mode())
		}
	}
}
