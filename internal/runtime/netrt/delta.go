package netrt

// A region's mutations. Every member builds the same corpus from
// DataConfig, and the handshake signature holds them to it, so the one
// part of an owner's region another member cannot re-derive is what was
// done to it online: the boot ids deleted and the objects published.
// That is a delta. A node answers its own regions from the sorted
// columns filtered by its own delta, and a down owner's regions from the
// same columns filtered by its copy of that owner's delta (query.go); a
// replica copy is the owner's delta and nothing else (replica.go).

import (
	"math"
	"slices"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
)

// delta is one region's mutations: the tombstoned boot ids and the
// published extras, with the XOR of their item digests. An extra sits in
// a slot, found by its id through extras and by its key through run: one
// entry per extra in (key, id) order — the order of the columns, so the
// extras under a region's prefix are one stretch of the run, found by
// binary search (span). Every change goes through apply or forget, which
// keep all of them and the digest in step.
type delta struct {
	tombs  map[int32]struct{} // deleted boot ids
	extras map[int32]int32    // the slot of each published entry, by id; never a boot id
	slots  []extra            // the published entries, in no order
	free   []int32            // slots a forgotten entry left, taken before slots grows
	run    []keyed            // the published entries in (key, id) order
	digest uint64
}

// keyed is one extra's place in the run. It holds no pointer, so the
// entries a publish moves to insert into the middle of the run are
// plain bytes: with the extra's pointers in the run, the garbage
// collector's write barrier on every moved entry made a member's local
// publish 0.1–0.5 µs slower at a thousand extras.
type keyed struct {
	key  lph.Key
	id   int32
	slot int32
}

// extra is one published entry: the object as published, and what the
// node holding it derived from it (MapObj): the key, the point, and the
// decoded object a query's distance reads.
type extra struct {
	key   lph.Key // unrotated, as the columns' keys
	point []float64
	val   any
	obj   []byte
}

func newDelta() delta {
	return delta{tombs: make(map[int32]struct{}), extras: make(map[int32]int32)}
}

// placeExtra maps an encoded object to the extra a publish of it
// places: its key and point, and the object decoded.
func placeExtra(c corpus, obj []byte) (*extra, error) {
	key, point, val, err := c.MapObj(obj)
	if err != nil {
		return nil, err
	}
	return &extra{key: c.Part().Unring(key), point: point, val: val, obj: obj}, nil
}

// size counts the items: what an anti-entropy advert and a stream header
// carry beside the digest.
func (d *delta) size() int { return len(d.tombs) + len(d.extras) }

// extra returns the published entry under id, or nil. It points into the
// slots, so it is good until the next apply or forget.
func (d *delta) extra(id int32) *extra {
	slot, ok := d.extras[id]
	if !ok {
		return nil
	}
	return &d.slots[slot]
}

// apply folds one mutation into the delta. A delete (x nil) tombstones a
// boot id and drops anything else's extra; a publish places x under id,
// replacing an earlier one, and is ignored under a boot id (an owner
// refuses it). Applying a mutation twice changes nothing, so journal
// replay, replica fan-out and a retried hand-off may repeat one.
func (d *delta) apply(id int32, boot bool, x *extra) {
	switch {
	case x == nil && boot:
		if _, dead := d.tombs[id]; !dead {
			d.tombs[id] = struct{}{}
			d.digest ^= itemDigest(id, nil, true)
		}
	case x == nil:
		d.forget(id)
	case !boot:
		d.forget(id)
		slot := int32(len(d.slots))
		if n := len(d.free); n > 0 {
			slot, d.free = d.free[n-1], d.free[:n-1]
			d.slots[slot] = *x
		} else {
			d.slots = append(d.slots, *x)
		}
		d.extras[id] = slot
		d.run = slices.Insert(d.run, d.find(x.key, id), keyed{x.key, id, slot})
		d.digest ^= itemDigest(id, x.obj, false)
	}
}

// forget takes the item under id out of the delta, tombstone or extra.
func (d *delta) forget(id int32) {
	if _, dead := d.tombs[id]; dead {
		delete(d.tombs, id)
		d.digest ^= itemDigest(id, nil, true)
	}
	if slot, ok := d.extras[id]; ok {
		x := &d.slots[slot]
		i := d.find(x.key, id)
		d.run = slices.Delete(d.run, i, i+1)
		d.digest ^= itemDigest(id, x.obj, false)
		*x = extra{}
		d.free = append(d.free, slot)
		delete(d.extras, id)
	}
}

// find returns the position of (key, id) in the run: where it is, or
// where it would be inserted.
func (d *delta) find(key lph.Key, id int32) int {
	lo, hi := 0, len(d.run)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e := d.run[m]; e.key < key || e.key == key && e.id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// from returns the first position in the run whose key is at least key.
func (d *delta) from(key lph.Key) int { return d.find(key, math.MinInt32) }

// span returns the stretch of the run an answer tests against reg's
// cube: the extras whose keys lie in reg's cuboid, up to cut — where a
// boot entry with their key would answer.
func (d *delta) span(reg query.Region, cut lph.Key) []keyed {
	lo, hi := lph.CuboidSpan(reg.PreKey, reg.PreLen)
	top := min(hi-1, cut) // hi is exclusive, and wraps to 0 for the whole key space
	if top < lo {
		return nil
	}
	end := len(d.run)
	if top != ^lph.Key(0) {
		end = d.from(top + 1)
	}
	return d.run[d.from(lo):end]
}

// FNV-1a's 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// itemDigest hashes one item with FNV-1a: its kind, its id (big-endian)
// and an extra's object bytes — its key and point are functions of
// those. It is written out rather than run through hash/fnv, which would
// allocate a hasher per apply; TestItemDigestPinned holds it to the
// values every journal, advert and peer already agrees on.
func itemDigest(id int32, obj []byte, tomb bool) uint64 {
	kind := byte('x')
	if tomb {
		kind = 't'
	}
	h := uint64(fnvOffset64)
	h = (h ^ uint64(kind)) * fnvPrime64
	for s := 24; s >= 0; s -= 8 {
		h = (h ^ uint64(byte(uint32(id)>>s))) * fnvPrime64
	}
	for _, c := range obj {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// appendTo appends the delta in its one wire form, the payload of a
// replica stream:
//
//	[4B tombstone count | 4B id …] [4B extra count | (4B id | 4B object length | object) …]
//
// big-endian, each list in ascending id order. An extra travels as its
// id and object: the receiver derives the key and point itself.
func (d *delta) appendTo(dst []byte) []byte {
	dst = appendU32(dst, uint32(len(d.tombs)))
	for _, id := range sortedIDs(d.tombs) {
		dst = appendU32(dst, uint32(id))
	}
	dst = appendU32(dst, uint32(len(d.extras)))
	for _, id := range sortedIDs(d.extras) {
		dst = appendBytes(appendU32(dst, uint32(id)), d.extra(id).obj)
	}
	return dst
}

// sortedIDs returns m's ids in ascending order, the order a delta is
// encoded and handed off in. (A plain loop and slices.Sort rather than
// slices.Sorted(maps.Keys(m)): nothing else in a node ranges over an
// iterator, and that would link the runtime's range-over-func support
// into it for this alone.)
func sortedIDs[V any](m map[int32]V) []int32 {
	ids := make([]int32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// decodeDelta inverts appendTo for corpus c, the bytes a peer streamed.
// It checks every count against the bytes left before it makes anything
// (nothing is sized from the stream header), refuses a tombstone that is
// not a boot id, an extra that is one or whose object c cannot map, and
// ids out of ascending order — so what it accepts re-encodes to itself —
// with a *wire.FrameError and the zero delta.
func decodeDelta(blob []byte, c corpus) (delta, error) {
	r := bodyReader{b: blob}
	d := newDelta()
	boot := func(id int32) bool { return id >= 0 && int(id) < c.N() }
	prev := int64(math.MinInt64)
	for i, n := 0, r.count(4); i < n && !r.short; i++ {
		id := int32(r.u32())
		if !boot(id) || int64(id) <= prev {
			r.refuse()
			break
		}
		prev = int64(id)
		d.apply(id, true, nil)
	}
	prev = math.MinInt64
	for i, n := 0, r.count(8); i < n && !r.short; i++ {
		id, obj := int32(r.u32()), r.bytes()
		x, err := placeExtra(c, obj)
		if boot(id) || int64(id) <= prev || err != nil {
			r.refuse()
			break
		}
		prev = int64(id)
		d.apply(id, false, x)
	}
	return decoded(&r, d, "replica delta")
}
