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
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"

	"landmarkdht/internal/lph"
)

// delta is one region's mutations: the tombstoned boot ids and the
// published extras, with the XOR of their item digests. Every change goes
// through apply or forget, which keep the digest.
type delta struct {
	tombs  map[int32]struct{} // deleted boot ids
	extras map[int32]extra    // published entries, by id; never a boot id
	digest uint64
}

// extra is one published entry: the object as published, and the key
// and point the node holding it derived from it (MapObj).
type extra struct {
	key   lph.Key // unrotated, as the columns' keys
	point []float64
	obj   []byte
}

func newDelta() delta {
	return delta{tombs: make(map[int32]struct{}), extras: make(map[int32]extra)}
}

// size counts the items: what an anti-entropy advert and a stream header
// carry beside the digest.
func (d *delta) size() int { return len(d.tombs) + len(d.extras) }

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
		d.extras[id] = *x
		d.digest ^= itemDigest(id, x.obj, false)
	}
}

// forget takes the item under id out of the delta, tombstone or extra.
func (d *delta) forget(id int32) {
	if _, dead := d.tombs[id]; dead {
		delete(d.tombs, id)
		d.digest ^= itemDigest(id, nil, true)
	}
	if x, ok := d.extras[id]; ok {
		delete(d.extras, id)
		d.digest ^= itemDigest(id, x.obj, false)
	}
}

// itemDigest hashes one item with FNV-1a: its kind, its id and an
// extra's object bytes — its key and point are functions of those.
func itemDigest(id int32, obj []byte, tomb bool) uint64 {
	kind := byte('x')
	if tomb {
		kind = 't'
	}
	h := fnv.New64a()
	h.Write(binary.BigEndian.AppendUint32([]byte{kind}, uint32(id)))
	h.Write(obj)
	return h.Sum64()
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
		dst = appendBytes(appendU32(dst, uint32(id)), d.extras[id].obj)
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
		key, point, err := c.MapObj(obj)
		if boot(id) || int64(id) <= prev || err != nil {
			r.refuse()
			break
		}
		prev = int64(id)
		d.apply(id, false, &extra{key: c.Part().Unring(key), point: point, obj: obj})
	}
	return decoded(&r, d, "replica delta")
}
