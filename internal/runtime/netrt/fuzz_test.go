package netrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"landmarkdht/internal/wire"
)

// FuzzDecodeRepEntry feeds hostile bytes to decodeDelta, the decoder
// every item of a replica copy — tombstone or published extra — is read
// through off a peer's stream, before failover answers are read from
// the copy. Over an edit corpus, whose MapObj maps any string of up to
// twelve bytes, it must:
//
//   - never panic, and refuse with a *wire.FrameError and the zero delta;
//   - check each count against the bytes left before it makes anything,
//     so that what it allocates is bounded by the input's length whatever
//     a count claims (the seeds claim 2³²−1 tombstones, 2³²−1 extras and
//     an object of 2³²−1 bytes);
//   - accept only tombstones that are boot ids and extras that are not;
//   - be the inverse of appendTo: what it accepts re-encodes to itself.
func FuzzDecodeRepEntry(f *testing.F) {
	c, err := buildCorpus(DataConfig{Metric: "edit", Seed: 3, Objects: 64, Landmarks: 3})
	if err != nil {
		f.Fatal(err)
	}
	n := int32(c.N())
	d := newDelta()
	d.apply(3, true, nil)
	d.apply(n-1, true, nil)
	for id, obj := range map[int32]string{-7: "abcde", n: "ab"} {
		x, err := placeExtra(c, []byte(obj))
		if err != nil {
			f.Fatal(err)
		}
		d.apply(id, false, x)
	}
	valid := d.appendTo(nil)
	empty := newDelta()
	u32 := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = appendU32(b, v)
		}
		return b
	}
	f.Add(valid)
	f.Add(empty.appendTo(nil))
	f.Add(valid[:len(valid)-3])                              // object cut short
	f.Add(append(slices.Clone(valid), 0xFF))                 // trailing garbage
	f.Add(u32(math.MaxUint32, 1, 2))                         // 2³²−1 tombstones
	f.Add(u32(0, math.MaxUint32, uint32(n), 1))              // 2³²−1 extras
	f.Add(append(u32(0, 1, uint32(n), math.MaxUint32), 'a')) // an object of 2³²−1 bytes
	f.Add(u32(1, uint32(n), 0))                              // a tombstone past the corpus
	f.Add(append(u32(0, 1, 5, 1), 'a'))                      // an extra under a boot id
	f.Add(u32(2, 7, 3, 0))                                   // tombstones out of order
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var got delta
		var err error
		if used, limit := allocatedBy(func() { got, err = decodeDelta(data, c) }), uint64(64*len(data)+64<<10); used > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), used)
		}
		if err != nil {
			var fe *wire.FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("refused with %T (%v), want a *wire.FrameError", err, err)
			}
			if got.tombs != nil || got.extras != nil || got.keys != nil || got.digest != 0 {
				t.Fatalf("a refusal returned %+v", got)
			}
			return
		}
		for id := range got.tombs {
			if id < 0 || id >= n {
				t.Fatalf("accepted tombstone %d of a %d-entry corpus", id, n)
			}
		}
		for id := range got.extras {
			if id >= 0 && id < n {
				t.Fatalf("accepted an extra under boot id %d", id)
			}
		}
		if again := got.appendTo(nil); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, which re-encodes to %x", data, again)
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
