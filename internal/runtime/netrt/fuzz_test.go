package netrt

import (
	"bytes"
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
