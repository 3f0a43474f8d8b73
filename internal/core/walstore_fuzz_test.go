package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/wal"
)

// imageBytes serializes a store's whole image, index by index in name
// order: two stores hold the same entries in the same order exactly when
// these are equal. payload is what the image keeps of the records that
// built it — 12 bytes of key and id and 8 per coordinate for every entry.
func imageBytes(st Store) (image []byte, payload int) {
	for _, name := range st.Indexes() {
		image = append(append(image, name...), 0)
		st.View(name, func(keys []lph.Key, entries []Entry) {
			image = AppendRegion(image, keys, entries)
			payload += EncodedRegionSize(entries) - 2*len(entries)
		})
	}
	return image, payload
}

// FuzzWALStoreRecord feeds hostile bytes to applyRecord, the one decoder
// a durable store's directory is read through (the log's CRC below it
// vouches for the disk, not for the writer). The seeds are the records a
// real store journals for one call of each mutating method, and the
// first check is that replaying them, in order, into an empty image
// rebuilds the writer's. Of any record at all, applied to a small image
// that already holds a 3-coordinate index, applyRecord must:
//
//   - never panic, and refuse with a recordError, leaving the image
//     untouched — a batch whose last entry has a point of the wrong
//     length stores none of the ones before it;
//   - keep no more of an accepted record than the record is long;
//   - accept nothing record could not have written: what it decoded
//     re-encodes to the same bytes.
func FuzzWALStoreRecord(f *testing.F) {
	w, err := NewWALStore(WALStoreOptions{Dir: f.TempDir(), Sync: wal.SyncNever, CompactEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	var journal [][]byte
	wrote := func(err error) {
		f.Helper()
		if err != nil {
			f.Fatal(err)
		}
		journal = append(journal, bytes.Clone(w.buf))
	}
	pt := func(x float64) []float64 { return []float64{x, -x, math.Inf(1)} }
	wrote(w.Put("ix", 7, Entry{Obj: 1, Point: pt(0.25)}))
	wrote(w.PutBatch("ix", []lph.Key{9, 8}, []Entry{{Obj: 2, Point: pt(0.5)}, {Obj: -3, Point: pt(0.75)}}))
	_, err = w.Delete("ix", 9, 2)
	wrote(err)
	wrote(w.ApplyRegion("other", []lph.Key{math.MaxUint64}, []Entry{{Obj: 4}}))
	_, _, err = w.ExtractUpTo("ix", 0, 7)
	wrote(err)
	wrote(w.DropIndex("other"))
	replayed := &WALStore{mem: NewMemStore()}
	for i, rec := range journal {
		if err := replayed.applyRecord(rec); err != nil {
			f.Fatalf("record %d of the store's own journal refused: %v", i, err)
		}
		f.Add(rec)
	}
	want, _ := imageBytes(w)
	if got, _ := imageBytes(replayed); !bytes.Equal(got, want) || len(want) == 0 {
		f.Fatalf("replaying the journal built %x, the writer holds %x", got, want)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	put, batch := journal[0], journal[1]
	f.Add([]byte{})
	f.Add([]byte{opPut})
	f.Add([]byte{opDrop, 200, 'i', 'x'})                               // index name cut short
	f.Add(put[:len(put)-3])                                            // point cut short
	f.Add(append(bytes.Clone(put), 0))                                 // trailing byte
	f.Add(append(bytes.Clone(put[:16]), 0xFF, 0xFF))                   // 65535 coordinates
	f.Add(append(bytes.Clone(batch), put[4:len(put)-8]...))            // a batch ending in a 2-coordinate point
	f.Add(append([]byte{opBatch, 2, 'i', 'x'}, make([]byte, 14)...))   // a point of no coordinates into a 3-coordinate index
	f.Add([]byte{opDelete, 2, 'i', 'x', 0, 0, 0, 0, 0, 0, 0, 7, 0, 0}) // delete body cut short
	f.Add([]byte{9, 0})
	// A replacement for an index the image does not have, refused for its
	// second entry: the fuzzer's first find — the index stayed behind, empty.
	f.Add(AppendRegion([]byte{opRegion, 3, 'n', 'e', 'w'}, []lph.Key{1, 2}, []Entry{{Obj: 1, Point: pt(0.5)}, {Obj: 2}}))

	f.Fuzz(func(t *testing.T, p []byte) {
		st := &WALStore{mem: NewMemStore()}
		if err := st.mem.PutBatch("ix", []lph.Key{7, 8}, []Entry{{Obj: 1, Point: pt(0.25)}, {Obj: -3, Point: pt(0.75)}}); err != nil {
			t.Fatal(err)
		}
		before, held := imageBytes(st)
		err := st.applyRecord(p)
		after, holds := imageBytes(st)
		if err != nil {
			var refusal recordError
			if !errors.As(err, &refusal) {
				t.Fatalf("refused with %T (%v), want a recordError", err, err)
			}
			if !bytes.Equal(after, before) {
				t.Fatalf("refused record %x changed the image from %x to %x", p, before, after)
			}
			return
		}
		if holds-held > len(p) {
			t.Fatalf("a record of %d bytes left %d bytes behind", len(p), holds-held)
		}
		// Accepted, so the header is whole: op, name length, name.
		again, body := p[:2+int(p[1])], p[2+int(p[1]):]
		switch p[0] {
		case opPut, opRegion, opBatch:
			keys, entries, err := DecodeRegion(body, nil, nil)
			if err != nil {
				t.Fatalf("accepted record %x carries entries DecodeRegion refuses: %v", p, err)
			}
			again = AppendRegion(bytes.Clone(again), keys, entries)
		case opDelete:
			again = p[:len(again)+12]
		}
		if !bytes.Equal(again, p) {
			t.Fatalf("accepted %x, which record would have written as %x", p, again)
		}
	})
}
