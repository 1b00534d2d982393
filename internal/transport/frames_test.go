// What the data plane and the worker snapshot file do with bytes they should
// not trust, and guards that fail if a per-word encoding creeps back: a
// rejected peer frame is logged and counted, a damaged snapshot file never
// restores, a payload frame on the socket is its header and eight bytes a
// word, and a rank's state blob is its vectors' raw words plus small change.
package transport

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sapspsgd/internal/engine"
	"sapspsgd/internal/obs"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/tensor"
)

var recordFuzzCorpus = flag.Bool("record-fuzz-corpus", false,
	"rewrite testdata/fuzz from the rejection table — only together with a snapshot format change")

// reseal recomputes a hand-patched frame's checksum (CRC-32C of bytes 0..31
// and the body, stored at 32), so the patched field is all that is wrong.
func reseal(frame []byte) []byte {
	table := crc32.MakeTable(crc32.Castagnoli)
	sum := crc32.Update(crc32.Checksum(frame[:32], table), table, frame[engine.FrameHeaderLen:])
	binary.LittleEndian.PutUint32(frame[32:], sum)
	return frame
}

// logSink collects a worker's log lines from whichever goroutine writes them.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logSink) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

// TestRejectedFrameIsLoggedAndCounted: the accept loop used to drop a frame
// it could not decode without a word. Each bad connection now leaves one log
// line carrying the reason and one tick of transport_frames_rejected_total,
// files nothing in the inbox, and the data plane goes on to deliver the
// intact frame that follows. Each connection has its own reader, so the test
// waits for each tick before it sends the next bad frame.
func TestRejectedFrameIsLoggedAndCounted(t *testing.T) {
	metrics := obs.New()
	obs.Enable(metrics)
	defer obs.Enable(nil)

	var sink logSink
	ws := peerFleetWith(t, 2, func(w *WorkerClient) {
		w.Logf = sink.logf
		w.maxPayload = 1 << 10
	})

	good := func(seq int) []byte {
		frame := tensor.AppendWords(engine.BeginFrame(nil), []float64{float64(seq)})
		engine.SealFrame(frame, engine.FrameHeader{Kind: engine.FramePayload, From: 0, Seq: seq})
		return frame
	}
	flipped := good(0)
	flipped[len(flipped)-1] ^= 1
	version1 := good(0)
	version1[4] = 1
	oversized := good(0)
	binary.LittleEndian.PutUint64(oversized[24:], 1<<40)
	stranger := good(0)
	binary.LittleEndian.PutUint32(stranger[8:], 7) // from rank 7 of 2
	ragged := append(engine.BeginFrame(nil), 1, 2, 3)
	engine.SealFrame(ragged, engine.FrameHeader{Kind: engine.FramePayload})
	snapshotKind := engine.BeginFrame(nil)
	engine.SealFrame(snapshotKind, engine.FrameHeader{Kind: engine.FrameSnapshot})
	bad := []struct {
		name string
		data []byte
		want string
	}{
		{"short read", good(0)[:20], "EOF"},
		{"format-1 gob stream", []byte("F\xff\x93\x03\x01\x01\x0bPeerPayload\x01\xff\x94\x00\x01\x05\x01\x05Round\x01\x04\x00\x01\x04From\x01\x04\x00"), "magic"},
		{"other version", reseal(version1), "version 1"},
		{"flipped bit", flipped, "checksum"},
		{"oversized length", reseal(oversized), "at most 1024"},
		{"unknown sender", reseal(stranger), "rank 7 of 2"},
		{"not whole words", ragged, "whole words"},
		{"snapshot on the socket", snapshotKind, "kind 3"},
	}
	send := func(data []byte) {
		nc, err := net.Dial("tcp", ws[1].addrs[1])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(data); err != nil {
			t.Fatal(err)
		}
		nc.Close()
	}
	rejected := func(n int) {
		within(t, 30*time.Second, func() error {
			for metrics.Transport.FramesRejectedTotal.Value() < int64(n) {
				time.Sleep(time.Millisecond)
			}
			return nil
		})
	}
	for i, b := range bad {
		send(b.data)
		rejected(i + 1)
	}
	send(good(0))
	within(t, 30*time.Second, func() error {
		got, err := peerDialer{ws[1]}.Recv(0, 1, 0)
		if err == nil && (len(got) != 1 || got[0] != 0) {
			err = fmt.Errorf("claimed %v, want the intact frame's one word", got)
		}
		return err
	})
	lines := sink.snapshot()
	if len(lines) != len(bad) {
		t.Fatalf("%d log lines for %d bad connections:\n%s", len(lines), len(bad), strings.Join(lines, "\n"))
	}
	for i, b := range bad {
		if !strings.Contains(lines[i], "rejected frame") || !strings.Contains(lines[i], b.want) {
			t.Errorf("%s: log line %q does not give the reason %q", b.name, lines[i], b.want)
		}
	}
	if got := metrics.Transport.FramesRejectedTotal.Value(); got != int64(len(bad)) {
		t.Errorf("frames_rejected_total = %d after %d bad connections", got, len(bad))
	}
	ws[1].inbox.mu.Lock()
	left := len(ws[1].inbox.frames[0])
	ws[1].inbox.mu.Unlock()
	if left != 0 {
		t.Errorf("%d frames left in the inbox: a rejected one was filed", left)
	}
}

// TestConnectionSpeaksForOneRank: a peer connection is long-lived, so how
// it ends matters. Closed at a frame boundary it is a normal close, neither
// logged nor counted. A later frame that claims another sender than the
// connection's first is rejected, logged and counted, and the receiver
// closes the connection; and a stream torn inside a header or a body is
// still a rejection.
func TestConnectionSpeaksForOneRank(t *testing.T) {
	metrics := obs.New()
	obs.Enable(metrics)
	defer obs.Enable(nil)

	frame := func(from, seq int) []byte {
		f := tensor.AppendWords(engine.BeginFrame(nil), []float64{float64(10*from + seq)})
		engine.SealFrame(f, engine.FrameHeader{Kind: engine.FramePayload, From: from, Seq: seq})
		return f
	}
	var sink logSink
	t.Run("fleet", func(t *testing.T) {
		ws := peerFleetWith(t, 3, func(w *WorkerClient) { w.Logf = sink.logf })
		dial := func() net.Conn {
			nc, err := net.Dial("tcp", ws[2].addrs[2])
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { nc.Close() })
			return nc
		}
		claim := func(from int, want float64) {
			within(t, 30*time.Second, func() error {
				got, err := peerDialer{ws[2]}.Recv(0, 2, from)
				if err == nil && (len(got) != 1 || got[0] != want) {
					err = fmt.Errorf("claimed %v from rank %d, want [%v]", got, from, want)
				}
				return err
			})
		}

		// Two frames and a clean close.
		clean := dial()
		if _, err := clean.Write(append(frame(0, 0), frame(0, 1)...)); err != nil {
			t.Fatal(err)
		}
		clean.Close()
		claim(0, 0)
		claim(0, 1)

		// Rank 1's connection, then a frame on it that claims rank 0.
		liar := dial()
		if _, err := liar.Write(append(frame(1, 0), frame(0, 2)...)); err != nil {
			t.Fatal(err)
		}
		claim(1, 10)
		within(t, 30*time.Second, func() error {
			if n, err := liar.Read(make([]byte, 1)); err != io.EOF {
				return fmt.Errorf("the receiver kept the connection open: read %d bytes, %v", n, err)
			}
			return nil
		})

		// Torn inside a header, and inside a body.
		for _, torn := range [][]byte{frame(1, 1)[:20], frame(1, 1)[:engine.FrameHeaderLen+3]} {
			nc := dial()
			if _, err := nc.Write(torn); err != nil {
				t.Fatal(err)
			}
			nc.Close()
		}
		within(t, 30*time.Second, func() error {
			for metrics.Transport.FramesRejectedTotal.Value() < 3 {
				time.Sleep(time.Millisecond)
			}
			return nil
		})
		ws[2].inbox.mu.Lock()
		left := len(ws[2].inbox.frames[0]) + len(ws[2].inbox.frames[1])
		ws[2].inbox.mu.Unlock()
		if left != 0 {
			t.Errorf("%d frames left in the inbox: the impostor's was filed", left)
		}
	})
	// The fleet is stopped and every reader has exited: nothing more can tick.
	if got := metrics.Transport.FramesRejectedTotal.Value(); got != 3 {
		t.Errorf("frames_rejected_total = %d, want 3: the impostor and the two torn frames, not the clean close", got)
	}
	lines := sink.snapshot()
	if len(lines) != 3 {
		t.Fatalf("%d log lines, want 3:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	for _, want := range []string{"rank 0 on rank 1's connection", "frame header: unexpected EOF", "frame body: 3 of 8 bytes: unexpected EOF"} {
		if !slices.ContainsFunc(lines, func(l string) bool { return strings.Contains(l, want) }) {
			t.Errorf("no log line gives the reason %q:\n%s", want, strings.Join(lines, "\n"))
		}
	}
}

// TestPayloadFrameIsHeaderPlusWords counts what Send puts on the socket: the
// 36-byte header and eight bytes a word, for an empty payload too, frame
// after frame on the one connection to the peer.
func TestPayloadFrameIsHeaderPlusWords(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- nc
		}
	}()
	w := &WorkerClient{rank: 0, n: 2, addrs: []string{"", ln.Addr().String()}, sent: make([]int, 2)}
	var nc net.Conn
	for _, words := range []int{0, 1, 21250, 85002} {
		payload := make([]float64, words)
		for i := range payload {
			payload[i] = float64(i) + 0.5
		}
		if err := (peerDialer{w}).Send(4, 0, 1, payload); err != nil {
			t.Fatal(err)
		}
		if nc == nil {
			nc = <-accepted
			defer nc.Close()
		}
		data := make([]byte, engine.FrameHeaderLen+8*words)
		if _, err := io.ReadFull(nc, data); err != nil {
			t.Fatalf("%d words: %v", words, err)
		}
		h, body, err := engine.ReadFrame(bytes.NewReader(data), nil, func(engine.FrameHeader) (int, error) { return 8 * words, nil })
		if err != nil {
			t.Fatal(err)
		}
		if h.Kind != engine.FramePayload || h.Round != 4 || h.From != 0 || !bytes.Equal(body, tensor.AppendWords(nil, payload)) {
			t.Fatalf("%d words: socket bytes read back as %+v with a %d-byte body", words, h, len(body))
		}
	}
	w.out.shut()
	if rest, err := io.ReadAll(nc); err != nil || len(rest) != 0 {
		t.Fatalf("%d bytes behind the frames (%v): want the header + 8 a word and nothing else", len(rest), err)
	}
	ln.Close()
	for extra := range accepted {
		extra.Close()
		t.Error("Send dialled the peer a second time")
	}
}

// tcp8Rank builds rank 0's node and codec table for the benchmark's tcp8
// shape (MLP [256,256] on 8×8 inputs, 85,002 parameters) as a worker process
// does.
func tcp8Rank(t testing.TB, algo string) *WorkerClient {
	t.Helper()
	spec := &scenario.Spec{
		SchemaVersion: scenario.SpecSchemaVersion, Name: "tcp8", Algo: algo,
		Nodes: 8, Rounds: 100, Seed: 7, LR: 0.05, Batch: 8, Compression: 4, C: 4,
		Model:     scenario.ModelSpec{Hidden: []int{256, 256}},
		Data:      scenario.DataSpec{Samples: 2048, Classes: 10, C: 1, H: 8, W: 8},
		Bandwidth: scenario.BandwidthSpec{Kind: "uniform", Lo: 1, Hi: 5},
	}
	w := &WorkerClient{rank: 0, n: 8}
	if err := w.buildNode(spec); err != nil {
		t.Fatal(err)
	}
	if p := w.model.ParamCount(); p != 85002 {
		t.Fatalf("tcp8 shape has %d parameters, want 85002", p)
	}
	return w
}

// TestRankSnapshotIsRawWords: a rank's state blob is eight bytes a parameter
// plus at most a kilobyte of names, cursors and lengths — the gob encoding it
// replaces cost 8.96 bytes a word (761,523 bytes here), and any per-word
// encoding fails this. The same goes for a topk-psgd rank's residual.
func TestRankSnapshotIsRawWords(t *testing.T) {
	const slack = 1 << 10
	for _, algo := range []string{"saps", "topk-psgd"} {
		w := tcp8Rank(t, algo)
		p := w.model.ParamCount()
		if algo == "topk-psgd" {
			// The residual allocates on the first Encode.
			if _, err := w.codecs[0].Encode(engine.RoundContext{}, w.model.FlatParams(nil)); err != nil {
				t.Fatal(err)
			}
		}
		rs, err := engine.CaptureRank(w.node, w.codecs[0], engine.RankSnapshot{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Node) < 8*p || len(rs.Node) > 8*p+slack {
			t.Errorf("%s: node blob is %d bytes for %d parameters, want 8 a word + at most %d", algo, len(rs.Node), p, slack)
		}
		if algo == "topk-psgd" && (len(rs.Codec) < 8*p || len(rs.Codec) > 8*p+slack) {
			t.Errorf("%s: codec blob is %d bytes for a %d-word residual, want 8 a word + at most %d", algo, len(rs.Codec), p, slack)
		}
		if err := engine.RestoreRank(w.node, w.codecs[0], rs); err != nil {
			t.Errorf("%s: restoring the blob just captured: %v", algo, err)
		}
	}
}

// TestCaptureRankAllocatesLittle: the per-round rollback boundary copies the
// parameters once, into the blob — it allocates at most twice the blob's
// length (the gob path it replaces allocated 9.3×: 7.1 MB for a 762 KB blob).
func TestCaptureRankAllocatesLittle(t *testing.T) {
	w := tcp8Rank(t, "saps")
	var blob int
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, err := engine.CaptureRank(w.node, w.codecs[0], engine.RankSnapshot{})
			if err != nil {
				b.Fatal(err)
			}
			blob = len(rs.Node) + len(rs.Codec)
		}
	})
	if got := res.AllocedBytesPerOp(); got > 2*int64(blob) {
		t.Errorf("CaptureRank allocates %d bytes for a %d-byte blob (%.1f×), want at most 2×", got, blob, float64(got)/float64(blob))
	}
	t.Logf("CaptureRank: %d B allocated, %d allocations, %v per %d-byte blob", res.AllocedBytesPerOp(), res.AllocsPerOp(), time.Duration(res.NsPerOp()), blob)
}

// TestCommitAllocatesNothing: a worker's round boundary captures into the
// blob of the boundary before it, so its second and later commits allocate
// nothing at the tcp8 shape — and the blob they leave restores, and holds
// the bytes a fresh capture makes.
func TestCommitAllocatesNothing(t *testing.T) {
	for _, algo := range []string{"saps", "topk-psgd"} {
		w := tcp8Rank(t, algo)
		if _, err := w.codecs[0].Encode(engine.RoundContext{}, w.model.FlatParams(nil)); err != nil {
			t.Fatal(err) // a topk-psgd residual allocates on the first Encode
		}
		if err := w.commit(0); err != nil {
			t.Fatal(err)
		}
		next := 0
		if allocs := testing.AllocsPerRun(10, func() {
			next++
			if err := w.commit(next); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: a commit after the first allocates %v times", algo, allocs)
		}
		fresh, err := engine.CaptureRank(w.node, w.codecs[0], engine.RankSnapshot{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.snap.State.Node, fresh.Node) || !bytes.Equal(w.snap.State.Codec, fresh.Codec) {
			t.Errorf("%s: the reused blob differs from a fresh capture", algo)
		}
		if err := engine.RestoreRank(w.node, w.codecs[0], w.snap.State); err != nil {
			t.Errorf("%s: restoring the reused blob: %v", algo, err)
		}
	}
}

func intactWorkerSnapshot(t testing.TB, dir string) (*WorkerSnapshot, []byte) {
	t.Helper()
	spec, err := tinySpec("topk-psgd", 4, 20).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	ws := &WorkerSnapshot{
		Version: WorkerSnapshotVersion, Rank: 3, NextRound: 17, Spec: spec,
		State: engine.RankSnapshot{Node: []byte("the node's blob"), Codec: []byte("residual")},
	}
	path := filepath.Join(dir, "intact.snap")
	if err := SaveWorkerSnapshot(path, ws); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return ws, data
}

// TestLoadWorkerSnapshotRejects: the saved file loads back equal; cut short at
// any length, with any one bit flipped (header, checksum or body), with a
// byte behind it, under another version, magic or frame kind, or with a body
// whose sections run off its end, it is an error and never a snapshot.
func TestLoadWorkerSnapshotRejects(t *testing.T) {
	dir := t.TempDir()
	ws, intact := intactWorkerSnapshot(t, dir)
	path := filepath.Join(dir, "damaged.snap")
	load := func(data []byte) (*WorkerSnapshot, error) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return LoadWorkerSnapshot(path)
	}
	if got, err := load(intact); err != nil || !reflect.DeepEqual(got, ws) {
		t.Fatalf("intact file loaded as %+v, %v; want %+v", got, err, ws)
	}
	patch := func(at int, b ...byte) []byte {
		out := bytes.Clone(intact)
		copy(out[at:], b)
		return out
	}
	body := intact[engine.FrameHeaderLen:]
	spec, _, err := tensor.CutSection(body)
	if err != nil {
		t.Fatal(err)
	}
	wrap := func(kind engine.FrameKind, body []byte) []byte {
		frame := append(engine.BeginFrame(nil), body...)
		engine.SealFrame(frame, engine.FrameHeader{Kind: kind, From: 3, Round: 17})
		return frame
	}
	corpus := map[string][]byte{
		"intact":           intact,
		"trailing-byte":    append(bytes.Clone(intact), 0),
		"wrong-magic":      reseal(patch(0, 'S', 'N', 'A', 'P')),
		"version-1":        reseal(patch(4, 1, 0)),
		"version-2":        reseal(patch(4, 2, 0)),
		"version-4":        reseal(patch(4, 4, 0)),
		"engine-snapshot":  wrap(engine.FrameSnapshot, body),
		"payload-frame":    wrap(engine.FramePayload, body),
		"empty-body":       wrap(engine.FrameWorkerSnapshot, nil),
		"spec-only":        wrap(engine.FrameWorkerSnapshot, tensor.AppendSection(nil, spec)),
		"node-past-end":    wrap(engine.FrameWorkerSnapshot, tensor.BeginSection(tensor.AppendSection(nil, spec), 1<<40)),
		"no-codec-section": wrap(engine.FrameWorkerSnapshot, tensor.AppendSection(tensor.AppendSection(nil, spec), []byte("node"))),
		"extra-section":    wrap(engine.FrameWorkerSnapshot, tensor.AppendSection(bytes.Clone(body), []byte("more"))),
	}
	// Every length and every byte is tried; the fuzz corpus keeps the header's
	// field boundaries and a sample of the body.
	inCorpus := func(at int) bool {
		return at%32 == 0 || (at <= engine.FrameHeaderLen && at%4 == 0) || at == 6 || at == 7
	}
	for cut := 0; cut < len(intact); cut++ {
		if _, err := load(intact[:cut]); err == nil {
			t.Errorf("truncated at %d: loaded", cut)
		}
		if inCorpus(cut) {
			corpus[fmt.Sprintf("truncated-at-%d", cut)] = intact[:cut]
		}
	}
	for at := range intact {
		flipped := patch(at, intact[at]^0x04)
		if _, err := load(flipped); err == nil {
			t.Errorf("bit flipped at %d: loaded", at)
		}
		if inCorpus(at) {
			corpus[fmt.Sprintf("bit-flipped-at-%d", at)] = flipped
		}
	}
	for name, data := range corpus {
		if name == "intact" {
			continue
		}
		if got, err := load(data); err == nil {
			t.Errorf("%s: loaded as %+v", name, got)
		}
	}
	for name, want := range map[string]string{"wrong-magic": "magic", "version-1": "version 1", "version-2": "version 2", "trailing-byte": "follow the frame"} {
		if _, err := load(corpus[name]); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v does not mention %q", name, err, want)
		}
	}
	if *recordFuzzCorpus {
		writeCorpus(t, "FuzzLoadWorkerSnapshot", corpus)
	}
}

// writeCorpus replaces the named fuzz target's seed corpus with one file per
// entry.
func writeCorpus(t *testing.T, target string, corpus map[string][]byte) {
	t.Helper()
	fuzzDir := filepath.Join("testdata", "fuzz", target)
	if err := os.RemoveAll(fuzzDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(fuzzDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range corpus {
		file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(fuzzDir, name), []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzLoadWorkerSnapshot: whatever the file holds, LoadWorkerSnapshot returns
// a snapshot or an error; one it accepts is of this build's version and
// survives a save and a second load unchanged.
func FuzzLoadWorkerSnapshot(f *testing.F) {
	dir := f.TempDir()
	_, intact := intactWorkerSnapshot(f, dir)
	f.Add(intact)
	path := filepath.Join(dir, "fuzzed.snap")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ws, err := LoadWorkerSnapshot(path)
		if err != nil {
			return
		}
		if ws.Version != WorkerSnapshotVersion {
			t.Fatalf("accepted a version-%d snapshot", ws.Version)
		}
		if err := SaveWorkerSnapshot(path, ws); err != nil {
			t.Fatal(err)
		}
		again, err := LoadWorkerSnapshot(path)
		if err != nil || !reflect.DeepEqual(again, ws) {
			t.Fatalf("accepted snapshot %+v saved and loaded as %+v, %v", ws, again, err)
		}
	})
}

// controlFrame is an intact control frame of the given type around body.
func controlFrame(typ controlType, body []byte) []byte {
	frame := append(engine.BeginFrame(nil), body...)
	engine.SealFrame(frame, engine.FrameHeader{Kind: engine.FrameControl, Seq: int(typ)})
	return frame
}

// encoded is what Send puts on the socket for m, under the test fleet's caps.
func encoded(t testing.TB, m any) []byte {
	var buf bytes.Buffer
	c := NewConn(pipeConn{Writer: &buf})
	c.setLimits(8, 3)
	if err := c.Send(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recvFrom decodes the first message data holds, as a connection of the test
// fleet would.
func recvFrom(data []byte) (any, error) {
	c := NewConn(pipeConn{Reader: bytes.NewReader(data), Writer: io.Discard})
	c.setLimits(8, 3)
	return c.Recv()
}

// TestControlFrameRejects: an intact frame of every type decodes; each way
// the table damages one is an error that names what is wrong — never a
// panic, and never a message.
func TestControlFrameRejects(t *testing.T) {
	corpus := map[string][]byte{}
	for i, m := range everyMessage() {
		name := strings.Replace(fmt.Sprintf("intact-%02d-%T", i, m), "transport.", "", 1)
		corpus[name] = encoded(t, m)
		got, err := recvFrom(corpus[name])
		if err != nil || !sameMessage(got, m) {
			t.Fatalf("%s: decoded %#v, %v", name, got, err)
		}
	}
	roundMsg := encoded(t, everyMessage()[2])
	roundEnd := encoded(t, everyMessage()[4])
	body := func(frame []byte) []byte { return bytes.Clone(frame[engine.FrameHeaderLen:]) }
	flipped := bytes.Clone(roundEnd)
	flipped[engine.FrameHeaderLen+5] ^= 0x20
	huge := controlFrame(typeRoundMsg, nil)
	binary.LittleEndian.PutUint64(huge[24:], 1<<40)
	// RoundEnd's body: Rank, Round, Attempt, Loss, then the Trained byte.
	badBool := body(roundEnd)
	badBool[32] = 2
	// RoundMsg's body: Round, Seed, Peer, then Active's length and entries.
	badActive := body(roundMsg)
	badActive[32] = 7
	routed := controlFrame(typeAbort, make([]byte, 8))
	binary.LittleEndian.PutUint32(routed[8:], 3)
	version2 := bytes.Clone(roundMsg)
	version2[4] = 2
	payload := append(engine.BeginFrame(nil), make([]byte, 8)...)
	engine.SealFrame(payload, engine.FrameHeader{Kind: engine.FramePayload})
	table := []struct {
		name string
		data []byte
		want string
	}{
		{"unknown-type", controlFrame(controlTypes, nil), "unknown control message type 17"},
		{"type-zero", controlFrame(0, nil), "unknown control message type 0"},
		{"over-cap", controlFrame(typeAbort, make([]byte, 16)), "at most 8"},
		{"over-cap-declared", reseal(huge), "at most"},
		{"flipped-bit", flipped, "checksum"},
		{"truncated-body", controlFrame(typeRoundMsg, body(roundMsg)[:20]), "ends inside a word"},
		{"truncated-section", controlFrame(typeRoundMsg, body(roundMsg)[:len(body(roundMsg))-1]), "section declares"},
		{"trailing-bytes", controlFrame(typeRoundMsg, append(body(roundMsg), 0, 0, 0)), "3 bytes after the last field"},
		{"truncated-frame", roundMsg[:len(roundMsg)-4], "EOF"},
		{"bool-byte-2", controlFrame(typeRoundEnd, badBool), "bool byte 2"},
		{"active-byte-7", controlFrame(typeRoundMsg, badActive), "bool byte 7"},
		{"routed", reseal(routed), "want zeros"},
		{"payload-kind", payload, "kind 1"},
		{"version-2", reseal(version2), "version 2"},
		{"nothing", nil, "EOF"},
	}
	for _, c := range table {
		corpus[c.name] = c.data
		m, err := recvFrom(c.data)
		if err == nil {
			t.Errorf("%s: decoded %#v", c.name, m)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	if *recordFuzzCorpus {
		writeCorpus(t, "FuzzControlFrame", corpus)
	}
}

// FuzzControlFrame: whatever the bytes, a connection's Recv returns a message
// or an error. A message it accepts encodes back to exactly the frame it came
// in, within its type's cap, and decoding it allocated no more than a small
// multiple of that cap — nothing a header or a section length claims beyond
// it.
func FuzzControlFrame(f *testing.F) {
	f.Add(encoded(f, everyMessage()[2]))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(pipeConn{Reader: bytes.NewReader(data), Writer: io.Discard})
		c.setLimits(8, 3)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := c.Recv()
		runtime.ReadMemStats(&after)
		if err != nil {
			return
		}
		typ, _ := controlOf(m)
		limit := c.limits.bodyCap(typ)
		again := encoded(t, m)
		if !bytes.Equal(again, data[:min(len(again), len(data))]) {
			t.Fatalf("accepted %T encodes to other bytes than it came in", m)
		}
		if body := len(again) - engine.FrameHeaderLen; body > limit {
			t.Fatalf("accepted a %d-byte %T body over its %d-byte cap", body, m, limit)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(8*limit+64<<10) {
			t.Fatalf("decoding a %T allocated %d bytes under a %d-byte cap", m, grew, limit)
		}
	})
}
