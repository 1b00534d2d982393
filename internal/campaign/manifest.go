package campaign

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"sapspsgd/internal/engine"
)

// ManifestName is the journal file a campaign keeps in its output
// directory.
const ManifestName = "manifest.jsonl"

// ManifestEntry is one completed cell's journal line. Wall seconds are
// machine-dependent and live only here — the per-cell records and the
// aggregates carry exclusively deterministic fields.
type ManifestEntry struct {
	// Cell is the cell ID the line records.
	Cell string `json:"cell"`
	// SpecSHA is the cell spec's content hash at execution time; resume
	// re-runs the cell when the current expansion disagrees.
	SpecSHA string `json:"spec_sha"`
	// TotalBytes, FinalLoss and SimSeconds mirror the cell result file.
	TotalBytes int64   `json:"total_bytes"`
	FinalLoss  float64 `json:"final_loss"`
	SimSeconds float64 `json:"sim_seconds"`
	// WallSeconds is the cell's measured execution time.
	WallSeconds float64 `json:"wall_seconds"`
}

// ReadManifest loads the journal, returning the latest entry per cell ID.
// A missing file is an empty manifest. Unparseable lines — e.g. the torn
// tail write of a killed campaign — are skipped, not fatal: the affected
// cell simply re-runs.
func ReadManifest(path string) (map[string]ManifestEntry, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return map[string]ManifestEntry{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	entries := map[string]ManifestEntry{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e ManifestEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Cell == "" {
			continue
		}
		entries[e.Cell] = e
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign: reading %s: %w", path, err)
	}
	return entries, nil
}

// manifestWriter appends journal lines durably: each entry is one
// marshal+newline write followed by a sync, so a kill between cells loses
// at most the in-flight line (which ReadManifest tolerates).
type manifestWriter struct {
	mu sync.Mutex
	f  *os.File
}

// openManifest opens (or creates) the journal for appending. A torn tail —
// a last line with no newline — is terminated first, so the next entry
// starts a line of its own instead of being glued onto the fragment.
func openManifest(path string) (*manifestWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, engine.FileMode)
	if err != nil {
		return nil, err
	}
	if err := terminateTail(f); err != nil {
		f.Close()
		return nil, err
	}
	return &manifestWriter{f: f}, nil
}

// terminateTail appends a newline to a non-empty file whose last byte is
// not one.
func terminateTail(f *os.File) error {
	fi, err := f.Stat()
	if err != nil || fi.Size() == 0 {
		return err
	}
	last := []byte{0}
	if _, err := f.ReadAt(last, fi.Size()-1); err != nil || last[0] == '\n' {
		return err
	}
	_, err = f.Write([]byte{'\n'})
	return err
}

// Append journals one completed cell.
func (w *manifestWriter) Append(e ManifestEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(append(line, '\n')); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close releases the journal file.
func (w *manifestWriter) Close() error { return w.f.Close() }
