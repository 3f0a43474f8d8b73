package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Frame layout of the one transport that moves bytes, runtime/netrt's
// TCP links (peer and client alike):
//
//	[8-byte big-endian message id | 4-byte big-endian payload length | payload]
//
// The message id correlates a frame with the sender's in-flight state
// (a query or request waiter). The length is validated against
// MaxFramePayload before any allocation, so a hostile or corrupt peer
// can make a reader drop the connection but can never make it allocate
// unbounded memory or panic.
const (
	// FrameHeader is the fixed frame header size in bytes.
	FrameHeader = 12
	// MaxFramePayload bounds a single frame's payload. It is far above
	// any frame the protocol produces (query and result messages are a
	// few KiB) and far below anything that could pressure memory.
	MaxFramePayload = 1 << 20
)

// FrameError is the typed decoding error for hostile, corrupt or
// truncated frames. A reader that sees one must drop the link: the
// stream is no longer trustworthy (frame boundaries may be lost).
type FrameError struct {
	// Reason says what was wrong ("oversized", "truncated header",
	// "truncated payload").
	Reason string
	// Size is the offending size: the declared payload length for an
	// oversized frame, the bytes actually read for a truncated one.
	Size int
}

// Error implements the error interface.
func (e *FrameError) Error() string {
	return fmt.Sprintf("wire: %s frame (%d bytes)", e.Reason, e.Size)
}

// AppendFrame appends one encoded frame to dst and returns the
// extended slice. It refuses payloads over MaxFramePayload — the
// sender-side guard that keeps a local bug from producing frames every
// peer would drop the link over.
func AppendFrame(dst []byte, id uint64, payload []byte) ([]byte, error) {
	if len(payload) > MaxFramePayload {
		return dst, &FrameError{Reason: "oversized", Size: len(payload)}
	}
	var hdr [FrameHeader]byte
	binary.BigEndian.PutUint64(hdr[:8], id)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// ReadFrame reads one frame from r. The payload is read into buf
// (grown when needed) and returned as a slice of it; the returned
// buffer must be passed back in on the next call so a read loop
// allocates only when frames outgrow its buffer.
//
// A clean end of stream before any header byte returns io.EOF. A
// stream that dies mid-frame, or declares a payload over
// MaxFramePayload, returns a *FrameError — the caller must drop the
// connection rather than resynchronize.
func ReadFrame(r io.Reader, buf []byte) (id uint64, payload, bufOut []byte, err error) {
	var hdr [FrameHeader]byte
	n, err := io.ReadFull(r, hdr[:])
	if err != nil {
		if n == 0 && err == io.EOF {
			return 0, nil, buf, io.EOF
		}
		return 0, nil, buf, &FrameError{Reason: "truncated header", Size: n}
	}
	id = binary.BigEndian.Uint64(hdr[:8])
	ln := binary.BigEndian.Uint32(hdr[8:12])
	if ln > MaxFramePayload {
		return 0, nil, buf, &FrameError{Reason: "oversized", Size: int(ln)}
	}
	if int(ln) > cap(buf) {
		buf = make([]byte, ln)
	}
	buf = buf[:ln]
	if m, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, &FrameError{Reason: "truncated payload", Size: m}
	}
	return id, buf, buf, nil
}
