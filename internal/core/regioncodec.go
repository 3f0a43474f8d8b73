package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"landmarkdht/internal/lph"
)

// Region codec: the serialized form of index entries, shared by bulk
// region transfer (wire.RegionChunk payloads) and the durable store's
// journal records. One entry encodes as
//
//	[8B ring key | 4B object id | 2B point length | 8B per component]
//
// all big-endian. Index points are the landmark embedding's exact
// float64 coordinates — unlike query cubes, they are not quantized:
// an entry's point is the stored ground truth a future scan filters
// against, so a transfer must reproduce it bit-for-bit.

// entryHeaderBytes is the fixed per-entry overhead: key + obj + len.
const entryHeaderBytes = 8 + 4 + 2

// maxPointDims bounds a decoded point's dimensionality (embedding
// dimensionality is small — a handful of landmarks).
const maxPointDims = 1 << 12

// EncodedEntrySize returns the serialized size of one entry.
func EncodedEntrySize(e Entry) int {
	return entryHeaderBytes + 8*len(e.Point)
}

// AppendEntry appends one serialized entry to dst.
func AppendEntry(dst []byte, key lph.Key, e Entry) []byte {
	var hdr [entryHeaderBytes]byte
	binary.BigEndian.PutUint64(hdr[0:8], key)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(e.Obj))
	binary.BigEndian.PutUint16(hdr[12:14], uint16(len(e.Point)))
	dst = append(dst, hdr[:]...)
	for _, c := range e.Point {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], math.Float64bits(c))
		dst = append(dst, b[:]...)
	}
	return dst
}

// AppendRegion appends a serialized batch of entries to dst.
func AppendRegion(dst []byte, keys []lph.Key, entries []Entry) []byte {
	for i := range entries {
		dst = AppendEntry(dst, keys[i], entries[i])
	}
	return dst
}

// DecodeEntry parses one entry from the front of data, returning the
// remaining bytes. The decoded point is freshly allocated.
func DecodeEntry(data []byte) (key lph.Key, e Entry, rest []byte, err error) {
	if len(data) < entryHeaderBytes {
		return 0, Entry{}, nil, fmt.Errorf("core: truncated region entry (%d bytes)", len(data))
	}
	key = binary.BigEndian.Uint64(data[0:8])
	e.Obj = ObjectID(int32(binary.BigEndian.Uint32(data[8:12])))
	k := int(binary.BigEndian.Uint16(data[12:14]))
	if k > maxPointDims {
		return 0, Entry{}, nil, fmt.Errorf("core: region entry declares %d dimensions", k)
	}
	data = data[entryHeaderBytes:]
	if len(data) < 8*k {
		return 0, Entry{}, nil, fmt.Errorf("core: truncated region entry point (%d of %d bytes)", len(data), 8*k)
	}
	if k > 0 {
		e.Point = make([]float64, k)
		for i := range e.Point {
			e.Point[i] = math.Float64frombits(binary.BigEndian.Uint64(data[8*i : 8*i+8]))
		}
	}
	return key, e, data[8*k:], nil
}

// DecodeRegion parses a serialized batch back into parallel key/entry
// slices, appending to the given buffers (pass nil to allocate).
func DecodeRegion(data []byte, keys []lph.Key, entries []Entry) ([]lph.Key, []Entry, error) {
	for len(data) > 0 {
		key, e, rest, err := DecodeEntry(data)
		if err != nil {
			return keys, entries, err
		}
		keys = append(keys, key)
		entries = append(entries, e)
		data = rest
	}
	return keys, entries, nil
}
