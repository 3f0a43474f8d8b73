package wire

import (
	"encoding/binary"
)

// Region digests summarize one owner's region for anti-entropy: owner
// and replica exchange (entry count, XOR-combined entry digest) pairs
// and schedule a bulk re-sync (RegionChunk stream) only on divergence.
// The digest itself is netrt's delta.digest, the XOR of itemDigest
// over the owner's mutations; this codec only moves it. The frame is
// fixed-size binary — like chunks and acks it is decoded synchronously
// on the reader, so a hostile stream surfaces as a typed *FrameError
// and a dropped link, never a panic or an allocation.

// DigestBytes is the encoded size of a RegionDigest: owner (8) +
// transfer (8) + entry count (4) + digest (8).
const DigestBytes = 8 + 8 + 4 + 8

// RegionDigest is one side's summary of a region in an anti-entropy
// exchange.
type RegionDigest struct {
	// Owner is the node whose region is being summarized (not
	// necessarily the sender: a replica answers with its copy's digest
	// for the same owner).
	Owner uint64
	// Transfer optionally names the bulk transfer this digest concludes
	// (zero for periodic advertisements).
	Transfer uint64
	// Entries is the number of entries in the region.
	Entries uint32
	// Digest is the order-independent combined entry digest.
	Digest uint64
}

// AppendDigest appends the encoded digest to dst.
func AppendDigest(dst []byte, d RegionDigest) []byte {
	var buf [DigestBytes]byte
	binary.BigEndian.PutUint64(buf[0:8], d.Owner)
	binary.BigEndian.PutUint64(buf[8:16], d.Transfer)
	binary.BigEndian.PutUint32(buf[16:20], d.Entries)
	binary.BigEndian.PutUint64(buf[20:28], d.Digest)
	return append(dst, buf[:]...)
}

// DecodeDigest parses an encoded digest. Anything but exactly
// DigestBytes bytes is a typed *FrameError: the stream is hostile or
// corrupt and the caller must drop the link.
func DecodeDigest(data []byte) (RegionDigest, error) {
	if len(data) != DigestBytes {
		return RegionDigest{}, &FrameError{Reason: "truncated payload", Size: len(data)}
	}
	return RegionDigest{
		Owner:    binary.BigEndian.Uint64(data[0:8]),
		Transfer: binary.BigEndian.Uint64(data[8:16]),
		Entries:  binary.BigEndian.Uint32(data[16:20]),
		Digest:   binary.BigEndian.Uint64(data[20:28]),
	}, nil
}
