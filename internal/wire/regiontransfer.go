package wire

import (
	"encoding/binary"
	"fmt"
)

// Region transfer frames carry serialized index regions in bulk during
// core's join/leave handoff, load migration and replica repair — replacing
// point-wise republication (one reliable round-trip per entry) with a
// chunked, credit-acked stream. A transfer is identified by a sender-
// chosen 64-bit id; its payload is split into sequenced chunks, each
// small enough to respect MaxFramePayload, each individually
// acknowledged so the sender's credit window bounds the in-flight
// bytes and lost chunks are retransmitted without restarting the
// stream (resumable at chunk granularity).
//
// Chunk payloads are opaque here — core's region codec defines the
// entry serialization — so the same frames can ship any index scheme.

const (
	// ChunkHeaderBytes is the fixed RegionChunk overhead before the
	// index name and data: transfer id (8) + seq (4) + flags (1) +
	// index-name length (2) + data length (4).
	ChunkHeaderBytes = 8 + 4 + 1 + 2 + 4
	// AckBytes is the modelled size of a chunk's acknowledgement:
	// transfer id (8) + seq (4).
	AckBytes = 8 + 4
	// maxIndexName bounds the index-scheme name carried per chunk.
	maxIndexName = 255
)

const chunkFlagLast = 1 << 0

// RegionChunk is one sequenced piece of a region transfer.
type RegionChunk struct {
	// Transfer identifies the stream this chunk belongs to.
	Transfer uint64
	// Index is the index scheme the entries belong to.
	Index string
	// Seq is the chunk's position in the stream, starting at 0.
	Seq uint32
	// Last marks the stream's final chunk (Seq+1 = total chunks).
	Last bool
	// Data is the serialized entries (core's region codec).
	Data []byte
}

// EncodedSize returns the chunk's encoded length.
func (c *RegionChunk) EncodedSize() int {
	return ChunkHeaderBytes + len(c.Index) + len(c.Data)
}

// AppendChunk appends the encoded chunk to dst. It refuses chunks
// whose encoding would exceed MaxFramePayload (split Data first) or
// whose index name is unreasonably long.
func AppendChunk(dst []byte, c *RegionChunk) ([]byte, error) {
	if len(c.Index) > maxIndexName {
		return dst, fmt.Errorf("wire: index name of %d bytes in region chunk", len(c.Index))
	}
	if c.EncodedSize() > MaxFramePayload {
		return dst, &FrameError{Reason: "oversized", Size: c.EncodedSize()}
	}
	var hdr [ChunkHeaderBytes]byte
	binary.BigEndian.PutUint64(hdr[0:8], c.Transfer)
	binary.BigEndian.PutUint32(hdr[8:12], c.Seq)
	if c.Last {
		hdr[12] = chunkFlagLast
	}
	binary.BigEndian.PutUint16(hdr[13:15], uint16(len(c.Index)))
	binary.BigEndian.PutUint32(hdr[15:19], uint32(len(c.Data)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, c.Index...)
	return append(dst, c.Data...), nil
}

// DecodeChunk parses an encoded chunk. The returned chunk's Index and
// Data reference freshly copied memory, so the input buffer may be
// reused.
func DecodeChunk(data []byte) (RegionChunk, error) {
	var c RegionChunk
	if len(data) < ChunkHeaderBytes {
		return c, &FrameError{Reason: "truncated payload", Size: len(data)}
	}
	c.Transfer = binary.BigEndian.Uint64(data[0:8])
	c.Seq = binary.BigEndian.Uint32(data[8:12])
	c.Last = data[12]&chunkFlagLast != 0
	nameLen := int(binary.BigEndian.Uint16(data[13:15]))
	dataLen := int(binary.BigEndian.Uint32(data[15:19]))
	rest := data[ChunkHeaderBytes:]
	if nameLen > maxIndexName || dataLen > MaxFramePayload || len(rest) != nameLen+dataLen {
		return c, &FrameError{Reason: "truncated payload", Size: len(data)}
	}
	c.Index = string(rest[:nameLen])
	c.Data = append([]byte(nil), rest[nameLen:]...)
	return c, nil
}
