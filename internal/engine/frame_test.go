// Rejection tests for the frame codec and the engine snapshot it wraps: every
// way the table damages an intact frame must come back as an error — never a
// panic, never an allocation sized by a length nobody vouched for — and the
// fuzz targets keep hammering the same two readers from a committed corpus
// (testdata/fuzz, which plain `go test` replays).
package engine_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sapspsgd/internal/engine"
	"sapspsgd/internal/tensor"
)

var recordFuzzCorpus = flag.Bool("record-fuzz-corpus", false,
	"rewrite testdata/fuzz from the rejection tables — only together with a frame or snapshot format change")

// sealed is an intact frame around body.
func sealed(h engine.FrameHeader, body []byte) []byte {
	frame := append(engine.BeginFrame(nil), body...)
	engine.SealFrame(frame, h)
	return frame
}

// reseal recomputes a hand-patched frame's checksum, so that the patched
// field is the only thing wrong with it. It pins the header layout DESIGN.md
// §3 documents: CRC-32C of bytes 0..31 and the body, stored at 32.
func reseal(frame []byte) []byte {
	table := crc32.MakeTable(crc32.Castagnoli)
	sum := crc32.Update(crc32.Checksum(frame[:32], table), table, frame[engine.FrameHeaderLen:])
	binary.LittleEndian.PutUint32(frame[32:], sum)
	return frame
}

// damage is one broken variant of an intact frame and a word its rejection
// must carry ("" when any error will do).
type damage struct {
	name string
	data []byte
	want string
}

// damaged lists the table's mutants of an intact frame: truncated at every
// header field boundary and inside the body, one bit flipped in every header
// field, in the checksum and in the body, and — with the checksum made good
// again, so nothing else is wrong — a foreign magic, other versions, unknown
// kinds and a length beyond what the reader was told to expect.
func damaged(intact []byte, maxBody int) []damage {
	patch := func(at int, b ...byte) []byte {
		out := bytes.Clone(intact)
		copy(out[at:], b)
		return out
	}
	var out []damage
	body := len(intact) - engine.FrameHeaderLen
	cuts := []int{0, 2, 4, 6, 7, 8, 12, 16, 20, 24, 28, 32, 34}
	if body > 0 {
		cuts = append(cuts, engine.FrameHeaderLen, engine.FrameHeaderLen+body/2, len(intact)-1)
	}
	for _, at := range cuts {
		out = append(out, damage{name: fmt.Sprintf("truncated-at-%d", at), data: bytes.Clone(intact[:at])})
	}
	flips := map[string]int{
		"magic": 1, "version": 4, "kind": 6, "zero": 7, "from": 8, "round": 13,
		"attempt": 16, "seq": 22, "length-low": 24, "length-high": 31, "checksum": 33,
	}
	if body > 0 {
		flips["body-first"], flips["body-mid"], flips["body-last"] = engine.FrameHeaderLen, engine.FrameHeaderLen+body/2, len(intact)-1
	}
	for field, at := range flips {
		out = append(out, damage{name: "bit-flipped-in-" + field, data: patch(at, intact[at]^0x10)})
	}
	// Format 1 (a gob stream, refused by magic, but its version number too),
	// the format before this one, and the next.
	for _, v := range []int{1, engine.FrameVersion - 1, engine.FrameVersion + 1} {
		out = append(out, damage{fmt.Sprintf("version-%d", v), reseal(patch(4, byte(v), 0)), fmt.Sprintf("version %d", v)})
	}
	over := make([]byte, 8)
	binary.LittleEndian.PutUint64(over, uint64(maxBody)+1)
	return append(out,
		damage{"wrong-magic", reseal(patch(0, 'S', 'N', 'A', 'P')), "magic"},
		damage{"kind-0", reseal(patch(6, 0)), "kind"},
		damage{"kind-9", reseal(patch(6, 9)), "kind"},
		damage{"length-over-cap", reseal(patch(24, over...)), "bytes"},
	)
}

// recordCorpus writes one seed-corpus file per entry for the named target.
func recordCorpus(t *testing.T, target string, entries map[string][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range entries {
		file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

const testMaxBody = 1 << 16

func capAt(n int) func(engine.FrameHeader) (int, error) {
	return func(engine.FrameHeader) (int, error) { return n, nil }
}

func intactPayload() []byte {
	body := tensor.AppendWords(nil, []float64{1.5, -2, 0, 7e-300, 3})
	return sealed(engine.FrameHeader{Kind: engine.FramePayload, From: 3, Round: 260, Attempt: 1, Seq: 2}, body)
}

// TestReadFrameRoundTrip: every kind and an empty body survive the trip, the
// reader takes exactly the frame's bytes off the stream (what follows is the
// next reader's), and a buffer that is large enough is the one the body
// comes back in.
func TestReadFrameRoundTrip(t *testing.T) {
	headers := []engine.FrameHeader{
		{Kind: engine.FramePayload, From: 7, Round: 1 << 20, Attempt: 3, Seq: 9},
		{Kind: engine.FrameProbe, From: 1},
		{Kind: engine.FrameSnapshot, Round: 12},
		{Kind: engine.FrameWorkerSnapshot, From: 2, Round: 5},
	}
	buf := make([]byte, 0, 64)
	for _, h := range headers {
		for _, body := range [][]byte{nil, []byte("0123456789abcdef")} {
			frame := sealed(h, body)
			if len(frame) != engine.FrameHeaderLen+len(body) {
				t.Fatalf("%+v: frame of %d bytes around a %d-byte body", h, len(frame), len(body))
			}
			r := bytes.NewReader(append(frame, "next"...))
			got, gotBody, err := engine.ReadFrame(r, buf, capAt(testMaxBody))
			if err != nil {
				t.Fatalf("%+v: %v", h, err)
			}
			if got != h || !bytes.Equal(gotBody, body) {
				t.Fatalf("read %+v %q, want %+v %q", got, gotBody, h, body)
			}
			if len(body) > 0 && &gotBody[0] != &buf[:1][0] {
				t.Fatalf("%+v: a %d-byte body was not read into the %d-byte buffer offered", h, len(body), cap(buf))
			}
			if rest, _ := io.ReadAll(r); string(rest) != "next" {
				t.Fatalf("%+v: reader left %q on the stream, want the 4 bytes behind the frame", h, rest)
			}
		}
	}
}

// TestReadFrameRejects runs the damage table through the stream reader.
func TestReadFrameRejects(t *testing.T) {
	intact := intactPayload()
	if _, _, err := engine.ReadFrame(bytes.NewReader(intact), nil, capAt(testMaxBody)); err != nil {
		t.Fatalf("intact frame: %v", err)
	}
	corpus := map[string][]byte{"intact": intact, "intact-empty-body": sealed(engine.FrameHeader{Kind: engine.FramePayload}, nil)}
	for _, d := range damaged(intact, testMaxBody) {
		corpus[d.name] = d.data
		h, body, err := engine.ReadFrame(bytes.NewReader(d.data), nil, capAt(testMaxBody))
		if err == nil {
			t.Errorf("%s: accepted as %+v with a %d-byte body", d.name, h, len(body))
		} else if !strings.Contains(err.Error(), d.want) {
			t.Errorf("%s: error %q does not mention %q", d.name, err, d.want)
		}
	}
	if *recordFuzzCorpus {
		recordCorpus(t, "FuzzReadFrame", corpus)
	}
}

// TestReadFrameRefusesOversizeBeforeAllocating: a header that declares a
// terabyte, or merely one byte over the cap, is refused from the header
// alone — the reader behind it is never asked for a body byte and nothing of
// the declared size is allocated.
func TestReadFrameRefusesOversizeBeforeAllocating(t *testing.T) {
	for _, declared := range []uint64{testMaxBody + 1, 1 << 40, 1<<64 - 1} {
		head := sealed(engine.FrameHeader{Kind: engine.FramePayload}, nil)
		binary.LittleEndian.PutUint64(head[24:], declared)
		r := bytes.NewReader(reseal(head))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := engine.ReadFrame(r, nil, capAt(testMaxBody))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "at most") {
			t.Fatalf("%d declared bytes: error %v", declared, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<10 {
			t.Errorf("%d declared bytes: refusing allocated %d bytes", declared, grew)
		}
	}
	// A snapshot file has no cap but what it holds: a header that declares a
	// terabyte over a 10-byte body costs the first read's room, not a terabyte.
	lying := sealed(engine.FrameHeader{Kind: engine.FrameSnapshot}, []byte("ten bytes!"))
	binary.LittleEndian.PutUint64(lying[24:], 1<<40)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := engine.DecodeSnapshot(bytes.NewReader(reseal(lying)))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "unexpected EOF") {
		t.Fatalf("a terabyte declared over 10 bytes: error %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("a terabyte declared over 10 bytes: allocated %d bytes", grew)
	}
	// A negative cap (a kind the caller takes no frames of) admits nothing.
	if _, _, err := engine.ReadFrame(bytes.NewReader(intactPayload()), nil, capAt(-1)); err == nil {
		t.Error("a negative cap admitted a frame")
	}
}

func intactSnapshot(t testing.TB) (*engine.Snapshot, []byte) {
	snap := &engine.Snapshot{
		Version:   engine.SnapshotVersion,
		NextRound: 5,
		Ranks: []engine.RankSnapshot{
			{Node: []byte("node zero's blob")},
			{Node: []byte("node one"), Codec: []byte("residual")},
			{Node: []byte{}, Codec: nil},
		},
		Ledger: []byte("totals"),
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return snap, buf.Bytes()
}

// TestSnapshotEncodeRoundTrip: the container keeps round, rank order, every
// blob's bytes, and which codec and ledger blobs were absent.
func TestSnapshotEncodeRoundTrip(t *testing.T) {
	snap, data := intactSnapshot(t)
	got, err := engine.DecodeSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	snap.Ranks[2].Node = nil // an empty blob and an absent one are the same section
	if got.Ranks[2].Node = nil; !reflect.DeepEqual(got, snap) {
		t.Fatalf("decoded %+v, want %+v", got, snap)
	}
	bare := &engine.Snapshot{Version: engine.SnapshotVersion}
	var buf bytes.Buffer
	if err := bare.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if got, err := engine.DecodeSnapshot(&buf); err != nil || got.Ledger != nil || len(got.Ranks) != 0 {
		t.Fatalf("empty snapshot decoded as %+v, %v", got, err)
	}
	stale := &engine.Snapshot{Version: 1}
	if err := stale.Encode(io.Discard); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("encoding a version-1 snapshot: %v", err)
	}
}

// TestDecodeSnapshotRejects runs the damage table, and what a whole-file
// reader adds to it, through DecodeSnapshot: trailing bytes, another frame
// kind, and — behind a checksum that is good — sections that run off the end
// of the body or stop halfway through a rank.
func TestDecodeSnapshotRejects(t *testing.T) {
	_, intact := intactSnapshot(t)
	table := damaged(intact, len(intact))
	table = append(table,
		damage{"trailing-byte", append(bytes.Clone(intact), 0), "follow the frame"},
		damage{"two-snapshots", append(bytes.Clone(intact), intact...), "follow the frame"},
		damage{"payload-frame", intactPayload(), "kind"},
		damage{"worker-snapshot-frame", sealed(engine.FrameHeader{Kind: engine.FrameWorkerSnapshot}, intact[engine.FrameHeaderLen:]), "kind"},
		damage{"empty-body", sealed(engine.FrameHeader{Kind: engine.FrameSnapshot}, nil), "ledger"},
		damage{"section-past-end", sealed(engine.FrameHeader{Kind: engine.FrameSnapshot}, tensor.BeginSection(nil, 1<<40)), "ledger"},
		damage{"rank-without-codec", sealed(engine.FrameHeader{Kind: engine.FrameSnapshot},
			tensor.AppendSection(tensor.AppendSection(nil, nil), []byte("node"))), "codec"},
	)
	corpus := map[string][]byte{"intact": intact}
	for _, d := range table {
		corpus[d.name] = d.data
		snap, err := engine.DecodeSnapshot(bytes.NewReader(d.data))
		if err == nil {
			t.Errorf("%s: accepted as %+v", d.name, snap)
		} else if !strings.Contains(err.Error(), d.want) {
			t.Errorf("%s: error %q does not mention %q", d.name, err, d.want)
		}
	}
	if *recordFuzzCorpus {
		recordCorpus(t, "FuzzDecodeSnapshot", corpus)
	}
}

// FuzzReadFrame: whatever the bytes, the stream reader returns a frame or an
// error; a frame it accepts is within the cap and seals back to exactly the
// bytes it was read from.
func FuzzReadFrame(f *testing.F) {
	f.Add(intactPayload())
	f.Fuzz(func(t *testing.T, data []byte) {
		h, body, err := engine.ReadFrame(bytes.NewReader(data), nil, capAt(testMaxBody))
		if err != nil {
			return
		}
		if len(body) > testMaxBody {
			t.Fatalf("accepted a %d-byte body over the %d-byte cap", len(body), testMaxBody)
		}
		if again := sealed(h, body); !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("accepted frame %+v seals to other bytes than it was read from", h)
		}
	})
}

// FuzzDecodeSnapshot: whatever the bytes, DecodeSnapshot returns a snapshot
// or an error; a snapshot it accepts encodes back to exactly those bytes.
func FuzzDecodeSnapshot(f *testing.F) {
	_, intact := intactSnapshot(f)
	f.Add(intact)
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := engine.DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := snap.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted snapshot of %d ranks encodes to other bytes than it was read from", len(snap.Ranks))
		}
	})
}
