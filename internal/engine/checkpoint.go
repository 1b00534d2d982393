package engine

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"sapspsgd/internal/netsim"
	"sapspsgd/internal/tensor"
)

// SnapshotVersion is the engine snapshot schema: format 4, a checksummed
// frame around state blobs that are fixed word layouts throughout — vectors,
// cursors and totals alike — whose trainer state is two sections, checkpoint
// and loader cursor. DecodeSnapshot rejects anything else — a format-2 or
// format-3 frame by its version, a format-1 gob stream by its magic;
// snapshots are crash-recovery artifacts of one run, so no older reader is
// kept — and a stale or damaged checkpoint file fails loudly instead of
// silently resuming a diverged trajectory.
const SnapshotVersion = FrameVersion

// Stateful is implemented by Nodes, Codecs and Ledgers whose round-boundary
// state must survive a checkpoint/restore cycle: model parameters and
// data-stream cursors on nodes, error-feedback residuals and RNG cursors on
// codecs, cumulative totals on ledgers.
// AppendState must be called only at a round boundary (no round in flight);
// RestoreState must be called on an identically constructed instance.
// Stateless codecs (Dense, Masked) simply do not implement the interface.
type Stateful interface {
	// AppendState appends the complete round-boundary state to dst, so a
	// caller that captures every round can reuse one blob's storage.
	AppendState(dst []byte) ([]byte, error)
	// RestoreState restores state written by AppendState.
	RestoreState([]byte) error
}

// The module's stateful codecs, ledgers and nodes, checked at build time: one
// that lost a method would otherwise drop out of every checkpoint unnoticed,
// since CaptureRank skips a codec that is not Stateful and RestoreRank
// accepts the absent blob that results.
var (
	_ Stateful = (*TopK)(nil)
	_ Stateful = (*RandomK)(nil)
	_ Stateful = (*QSGDCodec)(nil)
	_ Stateful = (*CountingLedger)(nil)
	_ Stateful = (*MaskedGossipNode)(nil)
	_ Stateful = (*netsim.Ledger)(nil)
)

// RankSnapshot is one rank's serialized round-boundary state: the node blob
// (model parameters, loader RNG cursors, replicas) and the rank's encoder
// codec blob (error-feedback residual, quantizer RNG) — nil for stateless
// codecs.
type RankSnapshot struct {
	Node  []byte
	Codec []byte
}

// Snapshot is a versioned engine checkpoint taken at a round boundary:
// restoring it into a freshly constructed engine (same recipe, same seed)
// and re-running the remaining rounds reproduces the uninterrupted run
// bit-identically. NextRound is the first round the restored engine should
// execute; Ledger carries the cumulative traffic totals when the ledger is
// checkpointable.
type Snapshot struct {
	Version   int
	NextRound int
	Ranks     []RankSnapshot
	Ledger    []byte
}

// CaptureRank snapshots one rank's node and encoder codec, writing the blobs
// into reuse's storage where they fit: pass the rank's previous snapshot
// when nothing else holds it any more, or a zero RankSnapshot. It fails when
// the node does not support checkpointing.
func CaptureRank(node Node, codec Codec, reuse RankSnapshot) (RankSnapshot, error) {
	sn, ok := node.(Stateful)
	if !ok {
		return RankSnapshot{}, fmt.Errorf("engine: node %T does not support checkpointing", node)
	}
	nb, err := sn.AppendState(reuse.Node[:0])
	if err != nil {
		return RankSnapshot{}, err
	}
	rs := RankSnapshot{Node: nb}
	if sc, ok := codec.(Stateful); ok {
		cb, err := sc.AppendState(reuse.Codec[:0])
		if err != nil {
			return RankSnapshot{}, err
		}
		rs.Codec = cb
	}
	return rs, nil
}

// RestoreRank restores a rank snapshot into an identically constructed node
// and codec.
func RestoreRank(node Node, codec Codec, rs RankSnapshot) error {
	sn, ok := node.(Stateful)
	if !ok {
		return fmt.Errorf("engine: node %T does not support checkpointing", node)
	}
	if err := sn.RestoreState(rs.Node); err != nil {
		return err
	}
	sc, stateful := codec.(Stateful)
	switch {
	case rs.Codec == nil && !stateful:
		return nil
	case rs.Codec == nil || !stateful:
		return fmt.Errorf("engine: snapshot codec state mismatch for %T", codec)
	}
	return sc.RestoreState(rs.Codec)
}

// Checkpoint captures the engine's complete round-boundary state: every
// rank's node and codec, plus the ledger totals when led is Stateful
// (CountingLedger, *netsim.Ledger: a resumed run then reports byte-identical
// totals to an uninterrupted one; pass nil to skip ledger capture). nextRound is the
// first round a restored engine will execute. It must not be called with a
// round in flight.
func (e *Engine) Checkpoint(nextRound int, led Ledger) (*Snapshot, error) {
	snap := &Snapshot{
		Version:   SnapshotVersion,
		NextRound: nextRound,
		Ranks:     make([]RankSnapshot, len(e.nodes)),
	}
	for i, node := range e.nodes {
		rs, err := CaptureRank(node, e.codecs[i], RankSnapshot{})
		if err != nil {
			return nil, fmt.Errorf("engine: checkpoint rank %d: %w", i, err)
		}
		snap.Ranks[i] = rs
	}
	if lc, ok := led.(Stateful); ok {
		lb, err := lc.AppendState(nil)
		if err != nil {
			return nil, err
		}
		snap.Ledger = lb
	}
	return snap, nil
}

// Restore loads a snapshot into this freshly constructed engine (same node
// count, same recipe) and into led when both the snapshot and the ledger
// support it. The caller must also re-point the planner: either construct it
// fresh and ReplayPlans(snap.NextRound), or restore planner state by other
// means — planner streams are not part of the snapshot because deployments
// keep the coordinator alive across worker restarts.
func (e *Engine) Restore(snap *Snapshot, led Ledger) error {
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("engine: snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	if len(snap.Ranks) != len(e.nodes) {
		return fmt.Errorf("engine: snapshot of %d ranks for %d nodes", len(snap.Ranks), len(e.nodes))
	}
	for i, rs := range snap.Ranks {
		if err := RestoreRank(e.nodes[i], e.codecs[i], rs); err != nil {
			return fmt.Errorf("engine: restore rank %d: %w", i, err)
		}
	}
	if lc, ok := led.(Stateful); ok && snap.Ledger != nil {
		return lc.RestoreState(snap.Ledger)
	}
	return nil
}

// ReplayPlans advances a freshly constructed planner to the stream position
// it held at the snapshot's round boundary by planning (and discarding)
// rounds [0, rounds). Planner outputs are deterministic functions of the
// call sequence, so replay is exact; it is also cheap — planning touches no
// model state.
func (e *Engine) ReplayPlans(rounds int) {
	for t := 0; t < rounds; t++ {
		e.driver.Planner.Plan(t)
	}
}

// EncodedSize is the number of bytes AppendTo appends.
func (rs RankSnapshot) EncodedSize() int {
	return tensor.SectionSize(len(rs.Node)) + tensor.SectionSize(len(rs.Codec))
}

// AppendTo appends the rank's two blobs to dst as two tensor sections; a
// stateless codec's absent blob is an empty one.
func (rs RankSnapshot) AppendTo(dst []byte) []byte {
	return tensor.AppendSection(tensor.AppendSection(dst, rs.Node), rs.Codec)
}

// ReadRankSnapshot takes the two sections AppendTo wrote off the front of b.
// The blobs alias b; an empty one reads back as absent.
func ReadRankSnapshot(b []byte) (rs RankSnapshot, rest []byte, err error) {
	if rs.Node, b, err = tensor.CutSection(b); err != nil {
		return RankSnapshot{}, nil, fmt.Errorf("engine: rank snapshot node blob: %w", err)
	}
	if rs.Codec, rest, err = tensor.CutSection(b); err != nil {
		return RankSnapshot{}, nil, fmt.Errorf("engine: rank snapshot codec blob: %w", err)
	}
	if len(rs.Codec) == 0 {
		rs.Codec = nil
	}
	return rs, rest, nil
}

// Encode writes the snapshot as one frame of kind FrameSnapshot: NextRound in
// the header, and as the body the ledger blob (empty when there is none) and
// then every rank's blobs in rank order, to the end.
func (s *Snapshot) Encode(w io.Writer) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("engine: encode snapshot: version %d, this build writes %d", s.Version, SnapshotVersion)
	}
	size := FrameHeaderLen + tensor.SectionSize(len(s.Ledger))
	for _, rs := range s.Ranks {
		size += rs.EncodedSize()
	}
	frame := tensor.AppendSection(BeginFrame(make([]byte, 0, size)), s.Ledger)
	for _, rs := range s.Ranks {
		frame = rs.AppendTo(frame)
	}
	SealFrame(frame, FrameHeader{Kind: FrameSnapshot, Round: s.NextRound})
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("engine: encode snapshot: %w", err)
	}
	return nil
}

// DecodeSnapshot reads a snapshot written by Encode, which must be all that r
// holds. A truncated or lengthened stream, a flipped bit anywhere, another
// format version and a file that is not a frame at all are errors. The
// snapshot's blobs alias one buffer.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	h, body, err := ReadSoleFrame(r, FrameSnapshot)
	if err != nil {
		return nil, fmt.Errorf("engine: decode snapshot: %w", err)
	}
	s := &Snapshot{Version: SnapshotVersion, NextRound: h.Round}
	if s.Ledger, body, err = tensor.CutSection(body); err != nil {
		return nil, fmt.Errorf("engine: decode snapshot ledger blob: %w", err)
	}
	if len(s.Ledger) == 0 {
		s.Ledger = nil
	}
	for len(body) > 0 {
		var rs RankSnapshot
		if rs, body, err = ReadRankSnapshot(body); err != nil {
			return nil, fmt.Errorf("engine: decode snapshot rank %d: %w", len(s.Ranks), err)
		}
		s.Ranks = append(s.Ranks, rs)
	}
	return s, nil
}

// FileMode is the permission, before the umask, of every file the product
// creates in a run or a snapshot directory.
const FileMode os.FileMode = 0o666

// DirMode is the permission, before the umask, of every directory the
// product creates in a run directory: what mkdir(1) gives.
const DirMode os.FileMode = 0o777

// CommitFile makes data the durable content of path: it writes data to a new
// temp file beside path, syncs and closes it, then renames it onto path. A
// crash leaves path's old bytes or all of the new ones; the rename is not
// made durable (DESIGN.md §3 says why no reader needs it). On failure the
// temp file is removed, path is untouched, and the error is the failed
// step's *os.PathError — or, for the rename, its *os.LinkError.
func CommitFile(path string, data []byte) error {
	tmp, err := createTemp(path)
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// CheckCommit fails now where CommitFile(path, ...) would fail to create its
// temp file: it creates one and removes it.
func CheckCommit(path string) error {
	tmp, err := createTemp(path)
	if err == nil {
		tmp.Close()
		err = os.Remove(tmp.Name())
	}
	return err
}

var tempSeq atomic.Uint64 // numbers this process's temp files

// createTemp creates the temp file CommitFile writes beside path.
func createTemp(path string) (*os.File, error) {
	return tempSibling(path, func(tmp string) (*os.File, error) {
		return os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_EXCL, FileMode)
	})
}

// CreateTempDir creates an empty directory beside path, with DirMode and
// named as CommitFile names its temp files, for a caller that fills it and
// renames it onto path; it returns the directory's path.
func CreateTempDir(path string) (string, error) {
	return tempSibling(path, func(tmp string) (string, error) { return tmp, os.Mkdir(tmp, DirMode) })
}

// tempSibling creates .<name>.tmp-<pid>-<seq> beside path with create, which
// must fail with os.ErrExist on a taken name: the product's one temp-name
// site. A name an earlier process left is skipped.
func tempSibling[T any](path string, create func(tmp string) (T, error)) (T, error) {
	dir, name := filepath.Split(path)
	for {
		t, err := create(filepath.Join(dir, fmt.Sprintf(".%s.tmp-%d-%d", name, os.Getpid(), tempSeq.Add(1))))
		if !errors.Is(err, os.ErrExist) {
			return t, err
		}
	}
}
