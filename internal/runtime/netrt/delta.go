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
	"fmt"
	"math"
	"slices"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/metric"
	"landmarkdht/internal/query"
)

// delta is one region's mutations: the tombstoned boot ids and the
// published extras, with the XOR of their item digests. The extras are
// indexed as rows of a query.Rows, the index core's regions scan too:
// each row's key is the extra's unrotated key (as the boot columns'
// keys), so the extras under a region's prefix are one stretch of its
// body; its id is the extra's and its point the one MapObj gave, tested
// against a cube as it is (no rounding band); its ref is the slot of
// the extra's payload (payload). extras maps each live extra's id to
// its key, the rest of the way to its row (query.Rows.Find). Every
// change goes through apply or forget, which keep all of them and the
// digest in step.
type delta struct {
	tombs  map[int32]struct{} // deleted boot ids
	extras map[int32]lph.Key  // the key of each published entry, by id; never a boot id
	rows   query.Rows
	payload
	digest uint64
}

// payload is the published extras' objects, each in a slot that never
// moves: the object as published, which the digest, the wire form and a
// hand-off read, and the object decoded — a euclid vector's dim
// coordinates in vecs, which metric.L2Rows reads, or an edit string in
// strs (dim 0). A forgotten extra's slot goes on free, and the next
// publish takes it.
type payload struct {
	dim  int // set by the first extra
	objs [][]byte
	vecs []float64
	strs []string
	free []int32
}

// extra is one published entry as a publish places it: the object as
// published, and what the node holding it derived from it (MapObj):
// the key, the point, and the object decoded. A delta keeps it as a
// row of its index and a slot of its payload.
type extra struct {
	key   lph.Key // unrotated, as the columns' keys
	point []float64
	val   any // a metric.Vector or a string
	obj   []byte
}

func newDelta() delta {
	return delta{tombs: make(map[int32]struct{}), extras: make(map[int32]lph.Key)}
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

// put stores x's object and its decoded form in a free slot, or a new
// one, and returns the slot.
func (p *payload) put(x *extra) int32 {
	if len(p.objs) == 0 {
		if v, ok := x.val.(metric.Vector); ok {
			p.dim = len(v)
		}
	}
	slot := int32(len(p.objs))
	if n := len(p.free); n > 0 {
		slot, p.free = p.free[n-1], p.free[:n-1]
	} else {
		p.objs = append(p.objs, nil)
		if p.dim > 0 {
			p.vecs = append(p.vecs, make([]float64, p.dim)...)
		} else {
			p.strs = append(p.strs, "")
		}
	}
	p.objs[slot] = x.obj
	switch v := x.val.(type) {
	case metric.Vector:
		copy(p.vecs[int(slot)*p.dim:], v)
	case string:
		p.strs[slot] = v
	default:
		panic(fmt.Sprintf("netrt: a published object decoded to %T", x.val))
	}
	return slot
}

// drop frees slot, and lets go of what it referred to.
func (p *payload) drop(slot int32) {
	p.objs[slot] = nil
	if p.dim == 0 {
		p.strs[slot] = ""
	}
	p.free = append(p.free, slot)
}

// size counts the items: what an anti-entropy advert and a stream header
// carry beside the digest.
func (d *delta) size() int { return len(d.tombs) + len(d.extras) }

// row returns the row of the extra published under id, or -1.
func (d *delta) row(id int32) int {
	key, ok := d.extras[id]
	if !ok {
		return -1
	}
	return d.rows.Find(key, id)
}

// published returns the object published under id and its key; ok is
// false when there is none.
func (d *delta) published(id int32) (obj []byte, key lph.Key, ok bool) {
	r := d.row(id)
	if r < 0 {
		return nil, 0, false
	}
	return d.objs[d.rows.Ref(r)], d.extras[id], true
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
		d.extras[id] = x.key
		d.rows.Add(x.key, id, d.put(x), x.point)
		d.rows.Settle()
		d.digest ^= itemDigest(id, x.obj, false)
	}
}

// forget takes the item under id out of the delta, tombstone or extra.
func (d *delta) forget(id int32) {
	if _, dead := d.tombs[id]; dead {
		delete(d.tombs, id)
		d.digest ^= itemDigest(id, nil, true)
	}
	r := d.row(id)
	if r < 0 {
		return
	}
	slot := d.rows.Ref(r)
	d.digest ^= itemDigest(id, d.objs[slot], false)
	delete(d.extras, id)
	d.drop(slot)
	d.rows.Kill(r)
	d.rows.Settle()
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
		obj, _, _ := d.published(id)
		dst = appendBytes(appendU32(dst, uint32(id)), obj)
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
