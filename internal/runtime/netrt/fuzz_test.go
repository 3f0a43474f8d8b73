package netrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"landmarkdht/internal/core"
)

// FuzzDecodeRepEntry feeds hostile bytes to the replica-entry decoder —
// and through it to core.DecodeEntry — the way installStage does, entry
// after entry until the blob is consumed or refused. Replica copies are
// parsed from peer streams and are what failover answers are read from,
// so the decoder must:
//
//   - never panic, and refuse with a repEntryError and nothing else;
//   - hand out an object capped to its declared length, so appending to
//     it cannot reach the next entry's bytes;
//   - be the inverse of appendRepEntry: re-encoding what it accepted
//     reproduces exactly the bytes it consumed.
func FuzzDecodeRepEntry(f *testing.F) {
	one := appendRepEntry(nil, 0x0123456789abcdef,
		core.Entry{Obj: 7, Point: []float64{0.25, 0.5, math.Inf(1)}}, []byte("object"))
	two := appendRepEntry(one, ^uint64(0), core.Entry{Obj: -1}, nil)
	f.Add(one)
	f.Add(two)
	f.Add(two[:len(two)-3])                      // object length cut short
	f.Add(append(one[:len(one):len(one)], 0xFF)) // trailing garbage
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF})                               // 65535 dimensions
	f.Add(append(appendRepEntry(nil, 1, core.Entry{Obj: 2}, nil)[:14], 0xFF, 0xFF, 0xFF, 0xFF)) // 4 GiB object

	f.Fuzz(func(t *testing.T, data []byte) {
		for len(data) > 0 {
			key, e, obj, rest, err := decodeRepEntry(data)
			if err != nil {
				var refusal repEntryError
				if !errors.As(err, &refusal) {
					t.Fatalf("refused with %T (%v), want a repEntryError", err, err)
				}
				if key != 0 || e.Obj != 0 || e.Point != nil || obj != nil || rest != nil {
					t.Fatalf("a refusal returned values: key %x entry %+v obj %v rest %v", key, e, obj, rest)
				}
				return
			}
			if cap(obj) != len(obj) {
				t.Fatalf("object of %d bytes has capacity %d: an append would overwrite the next entry", len(obj), cap(obj))
			}
			consumed := data[:len(data)-len(rest)]
			if again := appendRepEntry(nil, key, e, obj); !bytes.Equal(again, consumed) {
				t.Fatalf("re-encoding gave %x, the decoder consumed %x", again, consumed)
			}
			data = rest
		}
	})
}

// FuzzHotFrames feeds hostile bodies to the decoder of every frame kind
// proto.go encodes — peer frames arrive from whoever passed the
// handshake, handshake and client frames from whoever connected. which
// picks the decoder; the seeds are one valid encoding per kind, a
// 40-byte result body claiming 2³²−1 entries and an announce claiming as
// many members. checkDecode holds each decoder to: no panic; a refusal
// is a *wire.FrameError with the zero message; an accepted body
// re-encodes to itself and names no member whose ID is not its
// address's; and nothing is allocated that the body's length does not
// account for.
func FuzzHotFrames(f *testing.F) {
	codecs := frameCodecs()
	index := map[string]uint8{}
	for i, c := range codecs {
		index[c.name] = uint8(i)
		f.Add(uint8(i), c.append(nil, c.sample)[1:])
	}
	hostile := appendResult(nil, &resultMsg{Epoch: 1, QID: 2, Credit: 3, From: 4})[1:]
	binary.BigEndian.PutUint32(hostile[resultFixed-4:], math.MaxUint32)
	f.Add(index["result"], append(hostile, 0, 0, 0, 0))
	f.Add(index["announce"], []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 1, 'a'})

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		checkDecode(t, codecs[int(which)%len(codecs)], body)
	})
}

// FuzzDurableRecord feeds hostile bytes to rawState.add, the one decoder
// a data directory is read through (the WAL framing below it has checked
// a CRC, which vouches for the disk, not for the writer). It must:
//
//   - never panic, and refuse empty records, unknown tags and truncated
//     bodies with an error;
//   - read past the corpus records of earlier versions (tags 2 and 3)
//     and keep nothing of them — the old entry decoder grew a slice to a
//     32-bit index taken from the record, which is the last seed;
//   - retain no more memory than the record is long;
//   - be the inverse of encodeMutation for what it accepts.
func FuzzDurableRecord(f *testing.F) {
	pub := encodeMutation(&pubMsg{ID: 1 << 24, Key: 0x0123456789abcdef, Obj: []byte("object")},
		[]float64{0.25, 0.5, math.Inf(1)})
	entry := append([]byte{recEntry}, pub[1:]...)
	f.Add(encodeMeta(testData()))
	f.Add(pub)
	f.Add(encodeMutation(&pubMsg{ID: 7, Delete: true}, nil))
	f.Add(append([]byte{recLandmark}, "landmark"...))
	f.Add(entry)
	f.Add(pub[:14])                       // header cut short
	f.Add(pub[:len(pub)-len("object")-1]) // point cut short
	f.Add([]byte{recDelete, 0, 0})        // id cut short
	f.Add([]byte{})
	f.Add([]byte{9})
	f.Add(append([]byte{recEntry, 0xFF, 0xFF, 0xFF, 0xFF}, entry[5:]...)) // entry index 2³²−1

	f.Fuzz(func(t *testing.T, p []byte) {
		var r rawState
		err := r.add(p)
		retained := len(r.meta)
		for _, m := range r.muts {
			retained += 8*len(m.point) + len(m.obj)
		}
		if retained > len(p) {
			t.Fatalf("a record of %d bytes left %d bytes behind", len(p), retained)
		}
		const pubHdr = 1 + 4 + 8 + 2
		wellFormed := len(p) > 0
		if wellFormed {
			switch p[0] {
			case recMeta, recLandmark, recEntry:
			case recPublish:
				wellFormed = len(p) >= pubHdr && len(p)-pubHdr >= 8*int(binary.BigEndian.Uint16(p[13:]))
			case recDelete:
				wellFormed = len(p) == 5
			default:
				wellFormed = false
			}
		}
		if !wellFormed {
			if err == nil || len(r.muts) != 0 || r.meta != nil {
				t.Fatalf("malformed record %x: err %v, %d mutations, meta %x", p, err, len(r.muts), r.meta)
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed record %x refused: %v", p, err)
		}
		switch p[0] {
		case recMeta:
			if !bytes.Equal(r.meta, p) || len(r.muts) != 0 {
				t.Fatalf("meta record %x kept as %x with %d mutations", p, r.meta, len(r.muts))
			}
		case recLandmark, recEntry:
			if retained != 0 || len(r.muts) != 0 {
				t.Fatalf("legacy record %x was not skipped: %d mutations", p, len(r.muts))
			}
		default:
			if len(r.muts) != 1 || r.meta != nil {
				t.Fatalf("mutation record %x decoded to %d mutations, meta %x", p, len(r.muts), r.meta)
			}
			m := r.muts[0]
			again := encodeMutation(&pubMsg{ID: m.id, Key: uint64(m.key), Obj: m.obj, Delete: m.del}, m.point)
			if !bytes.Equal(again, p) {
				t.Fatalf("re-encoding gave %x, the record was %x", again, p)
			}
		}
	})
}
