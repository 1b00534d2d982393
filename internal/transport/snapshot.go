package transport

import (
	"errors"
	"fmt"
	"io"
	"os"

	"sapspsgd/internal/engine"
	"sapspsgd/internal/obs"
	"sapspsgd/internal/tensor"
)

// WorkerSnapshotVersion is the on-disk worker snapshot schema, the engine's
// frame format. LoadWorkerSnapshot rejects anything else so stale files fail
// loudly.
const WorkerSnapshotVersion = engine.SnapshotVersion

// WorkerSnapshot is a worker process's persisted round-boundary state: the
// run's scenario spec (so `worker -resume` needs nothing but the file), the
// rank, the first round the state is valid for, and the rank's engine
// snapshot — model parameters plus normalization statistics, optimizer
// momentum, minibatch RNG cursors, and the encoder codec's state
// (error-feedback residual, quantizer RNG). A snapshot is written only for
// *committed* rounds (the coordinator has charged the ledger), so resuming
// from it can never replay or skip accounted work.
type WorkerSnapshot struct {
	Version   int
	Rank      int
	NextRound int
	// Spec is the spec's canonical bytes exactly as Welcome carried them.
	// The file keeps them opaque; the resuming worker parses them.
	Spec  []byte
	State engine.RankSnapshot
}

// SaveWorkerSnapshot writes the snapshot through engine.CommitFile, so a
// crash mid-write leaves the previous snapshot intact. The file is one frame
// of kind FrameWorkerSnapshot — rank and NextRound in the header, the spec
// bytes and the rank's two state blobs as the body's sections — so its
// checksum covers every byte.
func SaveWorkerSnapshot(path string, s *WorkerSnapshot) error {
	if s.Version != WorkerSnapshotVersion {
		return fmt.Errorf("transport: snapshot version %d, this build writes %d", s.Version, WorkerSnapshotVersion)
	}
	size := engine.FrameHeaderLen + tensor.SectionSize(len(s.Spec)) + s.State.EncodedSize()
	frame := tensor.AppendSection(engine.BeginFrame(make([]byte, 0, size)), s.Spec)
	frame = s.State.AppendTo(frame)
	engine.SealFrame(frame, engine.FrameHeader{Kind: engine.FrameWorkerSnapshot, From: s.Rank, Round: s.NextRound})

	if err := engine.CommitFile(path, frame); err != nil {
		step := "write"
		if errors.As(err, new(*os.LinkError)) {
			step = "commit"
		}
		return fmt.Errorf("transport: %s snapshot: %w", step, err)
	}
	obs.Current().TransportM().SnapshotWritesTotal.Inc()
	return nil
}

// LoadWorkerSnapshot reads a snapshot written by SaveWorkerSnapshot. The file
// must be exactly one intact frame of this build's format: a torn or
// lengthened file, a flipped bit, a format-2 frame or a format-1 gob file —
// each is an error, never a restore. The spec bytes and the state blobs alias
// the bytes read.
func LoadWorkerSnapshot(path string) (*WorkerSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("transport: open snapshot: %w", err)
	}
	defer f.Close()
	s, err := readWorkerSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("transport: decode snapshot %s: %w", path, err)
	}
	return s, nil
}

func readWorkerSnapshot(r io.Reader) (*WorkerSnapshot, error) {
	h, body, err := engine.ReadSoleFrame(r, engine.FrameWorkerSnapshot)
	if err != nil {
		return nil, err
	}
	s := &WorkerSnapshot{Version: WorkerSnapshotVersion, Rank: h.From, NextRound: h.Round}
	if s.Spec, body, err = tensor.CutSection(body); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if s.State, body, err = engine.ReadRankSnapshot(body); err != nil {
		return nil, err
	}
	return s, tensor.NoMoreSections(body)
}
