package netrt

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/metric"
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

// answerExtrasReference is the walk the key-ordered extras replaced:
// every extra placed, in map order, against the share's regions until
// one takes it — its key in the region's cuboid and at or below the
// region's cut, its point in the cube.
func answerExtrasReference(s *share, placed map[int32]*extra, dist func(any) float64, r float64) []ResultEntry {
	var ents []ResultEntry
	for id, x := range placed {
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
// boot ids and each extra, as placeExtra placed it, by id.
type deltaModel struct {
	tombs  map[int32]bool
	extras map[int32]*extra
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
		dst = appendBytes(appendU32(dst, uint32(id)), m.extras[id].obj)
	}
	return dst
}

// digest is the XOR of the model's item digests, recomputed from scratch.
func (m *deltaModel) digest() uint64 {
	var h uint64
	for id := range m.tombs {
		h ^= itemDigest(id, nil, true)
	}
	for id, x := range m.extras {
		h ^= itemDigest(id, x.obj, false)
	}
	return h
}

// checkIndex holds d to the model: every extra of the model has a live
// row under its id and key, whose payload slot holds the object and the
// decoded object it was placed with, and the slots in use are as many
// as the extras; the tombstones, the digest and the wire form are the
// model's. What the rows themselves keep — order, boxes, dead rows, the
// bound on the tail — is FuzzRows' in internal/query.
func checkIndex(t *testing.T, d *delta, m *deltaModel) {
	t.Helper()
	if len(d.extras) != len(m.extras) || len(d.tombs) != len(m.tombs) {
		t.Fatalf("%d extras and %d tombstones; the model has %d and %d", len(d.extras), len(d.tombs), len(m.extras), len(m.tombs))
	}
	if used := len(d.objs) - len(d.free); used != len(m.extras) {
		t.Fatalf("%d payload slots in use for %d extras", used, len(m.extras))
	}
	for _, id := range sortedIDs(m.extras) {
		want := m.extras[id]
		r := d.row(id)
		if r < 0 || d.rows.ID(r) != id || d.extras[id] != want.key {
			t.Fatalf("extra %d under %x: row %d, keyed %x", id, want.key, r, d.extras[id])
		}
		slot := d.rows.Ref(r)
		var val any
		if d.dim > 0 {
			val = metric.Vector(d.vecs[int(slot)*d.dim : int(slot+1)*d.dim])
		} else {
			val = d.strs[slot]
		}
		if !bytes.Equal(d.objs[slot], want.obj) || !reflect.DeepEqual(val, want.val) {
			t.Fatalf("row %d (id %d) holds slot %d: %q %v, placed as %q %v", r, id, slot, d.objs[slot], val, want.obj, want.val)
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
// anywhere in the partitioner's index space, a prefix of a stored
// extra's key (or of a random key) of any length, and a cut at a stored
// key, at a random key or at the top of the key space.
func randomShare(rng *rand.Rand, d *delta, part *lph.Partitioner) share {
	s := share{d: d}
	ids := sortedIDs(d.extras)
	anyKey := func() lph.Key {
		if len(ids) > 0 && rng.Intn(4) != 0 {
			return d.extras[ids[rng.Intn(len(ids))]]
		}
		return lph.Key(rng.Uint64())
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		cube := part.AllBounds()
		for i, b := range cube {
			w := b.Hi - b.Lo
			lo := b.Lo + (rng.Float64()*1.1-0.1)*w
			cube[i] = lph.Bounds{Lo: lo, Hi: lo + rng.Float64()*0.8*w}
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

// extrasCorpus is one corpus FuzzExtrasRun runs its sequence over: how
// a publish's bytes become an object, and the largest radius it draws.
type extrasCorpus struct {
	c    corpus
	obj  func(b []byte) []byte
	maxR float64
}

// FuzzExtrasRun applies a sequence of publishes, republishes, deletes
// and forgets, three or more bytes each, to a delta and to a plain
// model of it, over an edit corpus (whose objects are any string of up
// to twelve letters) and over a euclid one (whose vectors take their
// coordinates from the same bytes). Ids range over more extras than a
// tail holds, so a sequence merges the tail into the body, forgets
// body rows and republishes them. After every step the index must
// agree with the model (checkIndex), and for random regions, cuts,
// query objects and radii the extras an answer takes from the index
// (answerExtras) must be, as a set, the ones the map walk it replaced
// takes (answerExtrasReference).
func FuzzExtrasRun(f *testing.F) {
	edit, err := buildCorpus(DataConfig{Metric: "edit", Seed: 3, Objects: 64, Landmarks: 3})
	if err != nil {
		f.Fatal(err)
	}
	const dim = 2
	euclid, err := buildCorpus(DataConfig{Metric: "euclid", Seed: 3, Objects: 64, Dim: dim, Landmarks: 3})
	if err != nil {
		f.Fatal(err)
	}
	corpora := []extrasCorpus{
		{edit, func(b []byte) []byte {
			obj := make([]byte, len(b))
			for i, c := range b {
				obj[i] = editAlphabet[int(c)%len(editAlphabet)]
			}
			return obj
		}, 8},
		{euclid, func(b []byte) []byte {
			v := make([]float64, dim)
			for j := range v {
				if len(b) > 0 {
					v[j] = float64(b[j%len(b)]) / 255
				}
			}
			return EncodeVectorQuery(v)
		}, 0.6},
	}
	n := int32(edit.N())
	f.Add(int64(1), []byte{0, 80, 3, 1, 2, 3, 0, 81, 3, 1, 2, 3, 0, 70, 12, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0})
	f.Add(int64(2), []byte{0, 90, 2, 4, 4, 1, 0, 5, 0, 2, 90, 0, 2, 3, 0, 3, 3, 0, 3, 90, 0})
	f.Add(int64(3), []byte{0, 2, 1, 1, 0, 100, 0, 0, 101, 0, 0, 102, 1, 4, 1, 0, 2, 2, 101, 0, 3, 100, 0})
	// Three tails' worth of publishes under distinct ids (query.Rows
	// merges a tail of 64), then deletes, forgets and republishes of
	// what they placed, most of it in the body by then.
	const tail = 64
	var long []byte
	for i := range 3 * tail {
		long = append(long, 0, byte(80+i), 2, byte(i), byte(7*i))
	}
	for i := range 2 * tail {
		long = append(long, byte(1+i%3), byte(80+5*i), 1, byte(3*i))
	}
	f.Add(int64(4), long)

	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		for _, ec := range corpora {
			runExtras(t, ec, n, seed, ops)
		}
	})
}

// runExtras is FuzzExtrasRun's sequence over one corpus. An op is
// op, pick and size bytes, then size bytes of object; pick names the id
// (boot ids are 0 to n−1; 8 ids below them and 184 above are extras).
func runExtras(t *testing.T, ec extrasCorpus, n int32, seed int64, ops []byte) {
	c := ec.c
	rng := rand.New(rand.NewSource(seed))
	d := newDelta()
	m := deltaModel{tombs: map[int32]bool{}, extras: map[int32]*extra{}}
	boot := func(id int32) bool { return id >= 0 && id < n }
	for len(ops) >= 3 {
		op, pick := ops[0]%4, ops[1]
		id := int32(pick) - 8
		size := min(int(ops[2]%(editMaxLen+1)), len(ops)-3)
		obj := ec.obj(ops[3 : 3+size])
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
				m.extras[id] = x
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
		checkIndex(t, &d, &m)
		for q := 0; q < 4; q++ {
			s := randomShare(rng, &d, c.Part())
			ev, err := c.Query(c.RandomQuery(rng))
			if err != nil {
				t.Fatal(err)
			}
			r := rng.Float64() * ec.maxR
			var nd Node
			got := nd.answerExtras(ev, r, s, nil)
			if got, want := asSet(got), asSet(answerExtrasReference(&s, m.extras, ev.Dist, r)); !slices.Equal(got, want) {
				t.Fatalf("regions %+v cuts %x: the index answers %v, the map walk %v", s.regions, s.cuts, got, want)
			}
		}
	}
}
