package netrt

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
)

// TestItemDigestPinned holds itemDigest to the values hash/fnv's FNV-1a
// gave over kind, big-endian id and object before it was written out:
// journals, anti-entropy adverts and peers compare these digests, so a
// node must keep computing exactly them.
func TestItemDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		id   int32
		obj  []byte
		tomb bool
		want uint64
	}{
		{7, nil, true, 0x12cb6026aed23ad2},
		{1 << 24, []byte("abcde"), false, 0x912c4b5d4c0070a5},
		{-7, []byte{0, 0xff}, false, 0x8d3bd7b2fe2c4500},
	} {
		if got := itemDigest(tc.id, tc.obj, tc.tomb); got != tc.want {
			t.Errorf("itemDigest(%d, %q, %v) = %#x, want %#x", tc.id, tc.obj, tc.tomb, got, tc.want)
		}
	}
}

// answerExtrasReference is the walk extrasWithin replaced: every extra
// of the share's delta, in map order, against the share's regions until
// one takes it — its key in the region's cuboid and at or below the
// region's cut, its point in the cube.
func answerExtrasReference(s *share, dist func(any) float64, r float64) []ResultEntry {
	var ents []ResultEntry
	for id := range s.d.extras {
		x := s.d.extra(id)
		for i, reg := range s.regions {
			if x.key > s.cuts[i] || !lph.SamePrefix(x.key, reg.PreKey, reg.PreLen) || !reg.Contains(x.point) {
				continue
			}
			if d := dist(x.val); d <= r {
				ents = append(ents, ResultEntry{Obj: id, Dist: d})
			}
			break
		}
	}
	return ents
}

// asSet sorts entries by object and drops repeats.
func asSet(ents []ResultEntry) []ResultEntry {
	slices.SortFunc(ents, func(a, b ResultEntry) int {
		if o := cmp.Compare(a.Obj, b.Obj); o != 0 {
			return o
		}
		return cmp.Compare(a.Dist, b.Dist)
	})
	return slices.Compact(ents)
}

// deltaModel is what a delta holds, kept the plain way: the tombstoned
// boot ids and each extra's object by id.
type deltaModel struct {
	tombs  map[int32]bool
	extras map[int32][]byte
}

// appendTo encodes the model as a delta built on an extras map encodes
// itself: each list in ascending id order.
func (m *deltaModel) appendTo(dst []byte) []byte {
	dst = appendU32(dst, uint32(len(m.tombs)))
	for _, id := range sortedIDs(m.tombs) {
		dst = appendU32(dst, uint32(id))
	}
	dst = appendU32(dst, uint32(len(m.extras)))
	for _, id := range sortedIDs(m.extras) {
		dst = appendBytes(appendU32(dst, uint32(id)), m.extras[id])
	}
	return dst
}

// digest is the XOR of the model's item digests, recomputed from scratch.
func (m *deltaModel) digest() uint64 {
	var h uint64
	for id := range m.tombs {
		h ^= itemDigest(id, nil, true)
	}
	for id, obj := range m.extras {
		h ^= itemDigest(id, obj, false)
	}
	return h
}

// checkRun holds d to the model: the run sorted by (key, id) without
// repeats and holding exactly the extras by id, each under the key it
// carries; each extra the object the model has under its id, with the
// key, point and decoded object that object maps to; the digest and the
// wire form the model's.
func checkRun(t *testing.T, c corpus, d *delta, m *deltaModel) {
	t.Helper()
	if len(d.run) != len(m.extras) || len(d.extras) != len(m.extras) || len(d.tombs) != len(m.tombs) {
		t.Fatalf("run %d, extras %d, tombstones %d; the model has %d extras and %d tombstones",
			len(d.run), len(d.extras), len(d.tombs), len(m.extras), len(m.tombs))
	}
	if len(d.slots) != len(d.extras)+len(d.free) {
		t.Fatalf("%d slots hold %d extras with %d free", len(d.slots), len(d.extras), len(d.free))
	}
	for i, e := range d.run {
		if i > 0 {
			if p := d.run[i-1]; p.key > e.key || p.key == e.key && p.id >= e.id {
				t.Fatalf("run out of order at %d: (%x, %d) then (%x, %d)", i, p.key, p.id, e.key, e.id)
			}
		}
		if slot, ok := d.extras[e.id]; !ok || slot != e.slot || d.slots[slot].key != e.key {
			t.Fatalf("run entry %d (%x, %d, slot %d) is not the extra under its id (slot %d, %v)", i, e.key, e.id, e.slot, slot, ok)
		}
	}
	for id := range d.extras {
		x := d.extra(id)
		if !bytes.Equal(x.obj, m.extras[id]) {
			t.Fatalf("extra %d holds %q, the model %q", id, x.obj, m.extras[id])
		}
		want, err := placeExtra(c, x.obj)
		if err != nil {
			t.Fatal(err)
		}
		if x.key != want.key || !slices.Equal(x.point, want.point) || x.val != want.val {
			t.Fatalf("extra %d is placed at %x %v %v, its object maps to %x %v %v",
				id, x.key, x.point, x.val, want.key, want.point, want.val)
		}
	}
	for id := range m.tombs {
		if _, ok := d.tombs[id]; !ok {
			t.Fatalf("tombstone %d missing", id)
		}
	}
	if want := m.digest(); d.digest != want {
		t.Fatalf("digest %#x, recomputed %#x", d.digest, want)
	}
	if got, want := d.appendTo(nil), m.appendTo(nil); !bytes.Equal(got, want) {
		t.Fatalf("delta encodes to %x, the model to %x", got, want)
	}
}

// randomShare draws one to three regions over d with their cuts: a cube
// anywhere in the edit corpus' index space, a prefix of a stored extra's
// key (or of a random key) of any length, and a cut at a stored key, at
// a random key or at the top of the key space.
func randomShare(rng *rand.Rand, d *delta, k int) share {
	s := share{d: d}
	anyKey := func() lph.Key {
		if len(d.run) > 0 && rng.Intn(4) != 0 {
			return d.run[rng.Intn(len(d.run))].key
		}
		return lph.Key(rng.Uint64())
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		cube := make([]lph.Bounds, k)
		for i := range cube {
			lo := rng.Float64()*14 - 1
			cube[i] = lph.Bounds{Lo: lo, Hi: lo + rng.Float64()*10}
		}
		preLen := rng.Intn(lph.M + 1)
		reg := query.Region{Cube: cube, PreKey: lph.Prefix(anyKey(), preLen), PreLen: preLen}
		cut := ^lph.Key(0)
		if rng.Intn(3) != 0 {
			cut = anyKey()
		}
		s.regions = append(s.regions, reg)
		s.cuts = append(s.cuts, cut)
	}
	return s
}

// FuzzExtrasRun applies a sequence of publishes, republishes, deletes
// and forgets, three or more bytes each, to a delta over an edit corpus
// (whose objects are any string of up to twelve letters) and to a plain
// model of it. After every step the run must agree with the model
// (checkRun), and for random regions, cuts, query objects and radii the
// extras an answer takes from the run (extrasWithin) must be, as a set,
// the ones the map walk it replaced takes (answerExtrasReference).
func FuzzExtrasRun(f *testing.F) {
	c, err := buildCorpus(DataConfig{Metric: "edit", Seed: 3, Objects: 64, Landmarks: 3})
	if err != nil {
		f.Fatal(err)
	}
	n := int32(c.N())
	f.Add(int64(1), []byte{0, 80, 3, 1, 2, 3, 0, 81, 3, 1, 2, 3, 0, 70, 12, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0})
	f.Add(int64(2), []byte{0, 90, 2, 4, 4, 1, 0, 5, 0, 2, 90, 0, 2, 3, 0, 3, 3, 0, 3, 90, 0})
	f.Add(int64(3), []byte{0, 2, 1, 1, 0, 100, 0, 0, 101, 0, 0, 102, 1, 4, 1, 0, 2, 2, 101, 0, 3, 100, 0})

	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		d := newDelta()
		m := deltaModel{tombs: map[int32]bool{}, extras: map[int32][]byte{}}
		boot := func(id int32) bool { return id >= 0 && id < n }
		for len(ops) >= 3 {
			op, pick := ops[0]%4, ops[1]
			id := int32(pick%uint8(n+40)) - 8
			size := min(int(ops[2]%(editMaxLen+1)), len(ops)-3)
			obj := make([]byte, size)
			for i, b := range ops[3 : 3+size] {
				obj[i] = editAlphabet[int(b)%len(editAlphabet)]
			}
			ops = ops[3+size:]
			if op == 1 && len(m.extras) > 0 { // republish an extra the delta holds
				ids := sortedIDs(m.extras)
				id, op = ids[int(pick)%len(ids)], 0
			}
			switch op {
			case 0, 1:
				x, err := placeExtra(c, obj)
				if err != nil {
					t.Fatal(err)
				}
				d.apply(id, boot(id), x)
				if !boot(id) {
					m.extras[id] = obj
				}
			case 2:
				d.apply(id, boot(id), nil)
				if boot(id) {
					m.tombs[id] = true
				} else {
					delete(m.extras, id)
				}
			case 3:
				d.forget(id)
				delete(m.tombs, id)
				delete(m.extras, id)
			}
			checkRun(t, c, &d, &m)
			for q := 0; q < 4; q++ {
				s := randomShare(rng, &d, c.Part().K())
				ev, err := c.Query(c.RandomQuery(rng))
				if err != nil {
					t.Fatal(err)
				}
				r := rng.Float64() * 8
				got, _, _ := s.extrasWithin(nil, ev.Dist, r)
				if got, want := asSet(got), asSet(answerExtrasReference(&s, ev.Dist, r)); !slices.Equal(got, want) {
					t.Fatalf("regions %+v cuts %x: the run answers %v, the map walk %v", s.regions, s.cuts, got, want)
				}
			}
		}
	})
}
