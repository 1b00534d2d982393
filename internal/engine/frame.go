package engine

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// A frame is what this system puts on a socket — between workers, or between
// the coordinator and a worker — or in a snapshot file: one fixed header,
// then a raw body the header measures and checksums. Little-endian
// throughout:
//
//	offset  size  field
//	     0     4  magic "SAPS"
//	     4     2  version (FrameVersion)
//	     6     1  kind
//	     7     1  zero
//	     8     4  from     sender rank (snapshots: the rank saved)
//	    12     4  round    (snapshots: the first round to run next)
//	    16     4  attempt
//	    20     4  seq      (control frames: the message type)
//	    24     8  body length in bytes
//	    32     4  CRC-32C of bytes 0..31 and the body
//
// A reader checks magic, version and kind, then the length against a cap the
// caller derives from the header and what it can expect, and only then makes
// room for the body; the checksum is verified before the body is handed on.

// FrameVersion is the one version of every byte layout a frame carries:
// peer payloads, probes, control messages and both snapshot kinds. Readers
// refuse any other.
const FrameVersion = 3

// FrameHeaderLen is the size of the fixed header.
const FrameHeaderLen = 36

const frameMagic = "SAPS"

// FrameKind says what a frame's body is.
type FrameKind uint8

// The frame kinds. Payload bodies are a codec's wire words, raw; probe bodies
// are the measurement phase's filler bytes; control bodies are a coordinator
// message, whose type and layout are the transport's business.
const (
	FramePayload FrameKind = 1 + iota
	FrameProbe
	FrameSnapshot
	FrameWorkerSnapshot
	FrameControl
	frameKinds
)

// FrameHeader is the routing half of a frame's header; magic, version, body
// length and checksum are the codec's own business.
type FrameHeader struct {
	Kind                      FrameKind
	From, Round, Attempt, Seq int
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BeginFrame empties buf and reserves the header's room; the caller appends
// the body and calls SealFrame.
func BeginFrame(buf []byte) []byte {
	return append(buf[:0], make([]byte, FrameHeaderLen)...)
}

// SealFrame fills in the header of a frame begun with BeginFrame, measuring
// and checksumming the body that was appended since.
func SealFrame(frame []byte, h FrameHeader) {
	copy(frame, frameMagic)
	binary.LittleEndian.PutUint16(frame[4:], FrameVersion)
	frame[6], frame[7] = byte(h.Kind), 0
	binary.LittleEndian.PutUint32(frame[8:], uint32(h.From))
	binary.LittleEndian.PutUint32(frame[12:], uint32(h.Round))
	binary.LittleEndian.PutUint32(frame[16:], uint32(h.Attempt))
	binary.LittleEndian.PutUint32(frame[20:], uint32(h.Seq))
	binary.LittleEndian.PutUint64(frame[24:], uint64(len(frame)-FrameHeaderLen))
	binary.LittleEndian.PutUint32(frame[32:], frameSum(frame[:32], frame[FrameHeaderLen:]))
}

func frameSum(head, body []byte) uint32 {
	return crc32.Update(crc32.Checksum(head, castagnoli), castagnoli, body)
}

// parseFrameHeader validates everything about a header that can be judged
// without the body and returns the declared body length.
func parseFrameHeader(head []byte) (FrameHeader, uint64, error) {
	if string(head[:4]) != frameMagic {
		return FrameHeader{}, 0, fmt.Errorf("engine: frame magic %q, want %q", head[:4], frameMagic)
	}
	if v := binary.LittleEndian.Uint16(head[4:]); v != FrameVersion {
		return FrameHeader{}, 0, fmt.Errorf("engine: frame version %d, want %d", v, FrameVersion)
	}
	h := FrameHeader{
		Kind:    FrameKind(head[6]),
		From:    int(binary.LittleEndian.Uint32(head[8:])),
		Round:   int(binary.LittleEndian.Uint32(head[12:])),
		Attempt: int(binary.LittleEndian.Uint32(head[16:])),
		Seq:     int(binary.LittleEndian.Uint32(head[20:])),
	}
	if h.Kind < FramePayload || h.Kind >= frameKinds || head[7] != 0 {
		return FrameHeader{}, 0, fmt.Errorf("engine: frame kind bytes %d,%d", head[6], head[7])
	}
	return h, binary.LittleEndian.Uint64(head[24:]), nil
}

// frameFirstRead is how much room a reader makes for a body before any of it
// has arrived; beyond that the room doubles as the bytes come in, so a header
// that overstates its length costs at most this plus twice what the stream
// really delivers.
const frameFirstRead = 4 << 20

// ReadFrame reads one frame from r. maxBody judges the header: it caps the
// body length, or refuses the frame outright with an error of its own; a
// header that declares more than the cap is refused before any room is made
// for the body. The body is read into buf's storage when that is large
// enough and is valid until the caller reuses buf. The error wraps io.EOF
// exactly when r ended before the frame's first byte — at a frame boundary
// of a stream; a stream that ends inside a frame is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte, maxBody func(FrameHeader) (int, error)) (FrameHeader, []byte, error) {
	var head [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return FrameHeader{}, nil, fmt.Errorf("engine: frame header: %w", err)
	}
	h, n, err := parseFrameHeader(head[:])
	if err != nil {
		return FrameHeader{}, nil, err
	}
	limit, err := maxBody(h)
	if err != nil {
		return FrameHeader{}, nil, err
	}
	if n > uint64(max(limit, 0)) {
		return FrameHeader{}, nil, fmt.Errorf("engine: frame of kind %d declares %d body bytes, at most %d expected", h.Kind, n, limit)
	}
	body := buf[:0]
	for left := int(n); left > 0; {
		chunk := min(left, max(len(body), frameFirstRead))
		if need := len(body) + chunk; need > cap(body) {
			body = append(make([]byte, 0, need), body...)
		}
		got, err := io.ReadFull(r, body[len(body):len(body)+chunk])
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the stream ended inside this frame
		}
		if err != nil {
			return FrameHeader{}, nil, fmt.Errorf("engine: frame body: %d of %d bytes: %w", len(body)+got, n, err)
		}
		body, left = body[:len(body)+chunk], left-chunk
	}
	if want, got := binary.LittleEndian.Uint32(head[32:]), frameSum(head[:32], body); got != want {
		return FrameHeader{}, nil, fmt.Errorf("engine: frame checksum %08x, header says %08x", got, want)
	}
	return h, body, nil
}

// ReadSoleFrame reads a frame of the given kind that must be all r holds — a
// snapshot file. Its length is capped only by what r delivers: missing bytes
// and bytes behind the frame are both errors.
func ReadSoleFrame(r io.Reader, kind FrameKind) (FrameHeader, []byte, error) {
	h, body, err := ReadFrame(r, nil, func(FrameHeader) (int, error) { return math.MaxInt, nil })
	if err != nil {
		return FrameHeader{}, nil, err
	}
	if h.Kind != kind {
		return FrameHeader{}, nil, fmt.Errorf("engine: frame kind %d, want %d", h.Kind, kind)
	}
	var one [1]byte
	if n, err := io.ReadFull(r, one[:]); n != 0 || err != io.EOF {
		return FrameHeader{}, nil, fmt.Errorf("engine: bytes follow the frame's %d (read error: %v)", FrameHeaderLen+len(body), err)
	}
	return h, body, nil
}
