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
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/metric"
	"landmarkdht/internal/query"
)

// delta is one region's mutations: the tombstoned boot ids and the
// published extras, with the XOR of their item digests. The extras are
// rows of columns (extraCols) in the shape of core's region index: rows
// [0, body) are the body, in (key, id) order — the order of the boot
// columns, so the extras under a region's prefix are one stretch of it,
// found by binary search — with a leaf box (boxes) over every
// leafRows of them; the rows after it are the tail, the latest
// publishes in no order. A publish appends to the tail, and a tail
// that reaches extraTailRows rows is merged into the body (merge). A
// forgotten tail row is replaced by the last one; a forgotten body row
// stays where it is until the next merge, dead: its object nil (a live
// row's never is), its point NaN, which no cube contains. extras maps
// each live extra's id to its key, the rest of the way to its row
// (row), so no row that moves has an entry to update. Every change
// goes through apply or forget, which keep all of them and the digest
// in step.
type delta struct {
	tombs  map[int32]struct{} // deleted boot ids
	extras map[int32]lph.Key  // the key of each published entry, by id; never a boot id
	extraCols
	boxes  query.LeafBoxes
	body   int // rows [0, body) are sorted and boxed
	dead   int // body rows forgotten since the last merge
	digest uint64
}

// extraTailRows bounds a delta's tail and dead rows together: when they
// reach it the tail is merged, so an answer tests the tail with one
// query.Box.Mask call (at most 64 rows), and a merge, which moves the
// whole body, runs once per that many publishes. BenchmarkLocalQueryExtras
// reads the same at 16, 32 and 64 and with the body's leaves at 8, 16
// or 32 rows, so they are the boot columns' leafRows; a publish into
// 10⁴ extras costs ≈ 4 µs at 64, 6–9 at 32 and 11–14 at 16
// (EXPERIMENTS "Extras under leaf boxes").
const extraTailRows = 64

// extraCols is published entries as columns, a row each: the unrotated
// key (as the boot columns' keys) and id; the index point, k float64
// coordinates, tested against a cube as they are (no rounding band);
// the object decoded — a euclid vector's dim coordinates in vecs, which
// metric.L2Rows reads, or an edit string in strs (dim 0) — and the
// object as published, which the digest, the wire form and a hand-off
// read. Nothing per row is a pointer but the strings and objects.
type extraCols struct {
	k, dim int // set by the first row
	keys   []lph.Key
	ids    []int32
	pts    []float64
	vecs   []float64
	strs   []string
	objs   [][]byte
}

// extra is one published entry as a publish places it: the object as
// published, and what the node holding it derived from it (MapObj):
// the key, the point, and the object decoded. A delta keeps it as a
// row of its columns.
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

// rows returns how many rows the columns hold.
func (c *extraCols) rows() int { return len(c.keys) }

// push appends x as a row, under id.
func (c *extraCols) push(id int32, x *extra) {
	if len(c.keys) == 0 {
		c.k = len(x.point)
		if v, ok := x.val.(metric.Vector); ok {
			c.dim = len(v)
		}
	}
	obj := x.obj
	if obj == nil {
		obj = []byte{} // nil marks a dead row
	}
	c.keys, c.ids, c.objs = append(c.keys, x.key), append(c.ids, id), append(c.objs, obj)
	c.pts = append(c.pts, x.point...)
	switch v := x.val.(type) {
	case metric.Vector:
		c.vecs = append(c.vecs, v...)
	case string:
		c.strs = append(c.strs, v)
	default:
		panic(fmt.Sprintf("netrt: a published object decoded to %T", x.val))
	}
}

// appendRow appends row r of src.
func (c *extraCols) appendRow(src *extraCols, r int) {
	c.keys, c.ids, c.objs = append(c.keys, src.keys[r]), append(c.ids, src.ids[r]), append(c.objs, src.objs[r])
	c.pts = append(c.pts, src.pts[r*c.k:(r+1)*c.k]...)
	if c.dim > 0 {
		c.vecs = append(c.vecs, src.vecs[r*c.dim:(r+1)*c.dim]...)
	} else {
		c.strs = append(c.strs, src.strs[r])
	}
}

// move copies rows [from, from+n) of src over rows [to, to+n), a copy
// per column; src may be c, and the two ranges may overlap.
func (c *extraCols) move(to int, src *extraCols, from, n int) {
	copy(c.keys[to:to+n], src.keys[from:from+n])
	copy(c.ids[to:to+n], src.ids[from:from+n])
	copy(c.objs[to:to+n], src.objs[from:from+n])
	copy(c.pts[to*c.k:(to+n)*c.k], src.pts[from*c.k:(from+n)*c.k])
	if c.dim > 0 {
		copy(c.vecs[to*c.dim:(to+n)*c.dim], src.vecs[from*c.dim:(from+n)*c.dim])
	} else {
		copy(c.strs[to:to+n], src.strs[from:from+n])
	}
}

// resize makes the columns n rows long within their capacity, dropping
// what the rows past n referred to.
func (c *extraCols) resize(n int) {
	if n < len(c.objs) {
		clear(c.objs[n:])
		if c.dim == 0 {
			clear(c.strs[n:])
		}
	}
	c.keys, c.ids, c.objs = c.keys[:n], c.ids[:n], c.objs[:n]
	c.pts = c.pts[:n*c.k]
	if c.dim > 0 {
		c.vecs = c.vecs[:n*c.dim]
	} else {
		c.strs = c.strs[:n]
	}
}

// less orders rows by (key, id), across two sets of columns.
func (c *extraCols) less(i int, o *extraCols, j int) bool {
	return c.keys[i] < o.keys[j] || c.keys[i] == o.keys[j] && c.ids[i] < o.ids[j]
}

// size counts the items: what an anti-entropy advert and a stream header
// carry beside the digest.
func (d *delta) size() int { return len(d.tombs) + len(d.extras) }

// row returns the row of the extra under id, or -1: its (key, id) in
// the body, by binary search, unless that row is dead; otherwise the
// tail row holding id.
func (d *delta) row(id int32) int {
	key, ok := d.extras[id]
	if !ok {
		return -1
	}
	r := sort.Search(d.body, func(r int) bool { return d.keys[r] > key || d.keys[r] == key && d.ids[r] >= id })
	if r < d.body && d.keys[r] == key && d.ids[r] == id && d.objs[r] != nil {
		return r
	}
	for r := d.body; r < d.rows(); r++ {
		if d.ids[r] == id {
			return r
		}
	}
	panic(fmt.Sprintf("netrt: extra %d is in no row", id))
}

// published returns the object published under id and its key; ok is
// false when there is none.
func (d *delta) published(id int32) (obj []byte, key lph.Key, ok bool) {
	r := d.row(id)
	if r < 0 {
		return nil, 0, false
	}
	return d.objs[r], d.keys[r], true
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
		d.push(id, x)
		d.digest ^= itemDigest(id, x.obj, false)
		d.settle()
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
	d.digest ^= itemDigest(id, d.objs[r], false)
	delete(d.extras, id)
	if r >= d.body {
		last := d.rows() - 1
		d.move(r, &d.extraCols, last, 1)
		d.resize(last)
		return
	}
	for j := r * d.k; j < (r+1)*d.k; j++ {
		d.pts[j] = math.NaN()
	}
	d.objs[r] = nil
	if d.dim == 0 {
		d.strs[r] = ""
	}
	d.dead++
	d.settle()
}

// settle merges the tail once the tail and the dead rows reach
// extraTailRows.
func (d *delta) settle() {
	if d.rows()-d.body+d.dead >= extraTailRows {
		d.merge()
	}
}

// merge sorts the tail into the body and drops the dead rows, in the
// columns the delta already has: the tail, sorted, is set aside, the
// live body rows close up, and the two runs are merged from the top
// down, so no row is overwritten before it has moved. The body rows
// between two tail rows' places move as one block, a copy per column.
// Then the boxes are refilled.
func (d *delta) merge() {
	n := d.rows()
	order := make([]int32, 0, n-d.body)
	for r := d.body; r < n; r++ {
		order = append(order, int32(r))
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(d.keys[a], d.keys[b]), cmp.Compare(d.ids[a], d.ids[b]))
	})
	tail := extraCols{k: d.k, dim: d.dim}
	for _, r := range order {
		tail.appendRow(&d.extraCols, int(r))
	}
	live := d.body
	if d.dead > 0 {
		live = 0
		for r := 0; r < d.body; {
			if d.objs[r] == nil {
				r++
				continue
			}
			end := r + 1
			for end < d.body && d.objs[end] != nil {
				end++
			}
			d.move(live, &d.extraCols, r, end-r)
			live += end - r
			r = end
		}
	}
	d.resize(live) // drops the references of the rows past the live ones
	d.resize(live + len(order))
	i, to := live, live+len(order) // body rows [0, i) and rows [to, …) are in place
	for j := len(order) - 1; j >= 0; j-- {
		p := sort.Search(i, func(r int) bool { return tail.less(j, &d.extraCols, r) })
		to -= i - p
		d.move(to, &d.extraCols, p, i-p)
		i, to = p, to-1
		d.move(to, &tail, j, 1)
	}
	d.body, d.dead = d.rows(), 0
	d.boxes.Fill(d.pts, 0, d.boxes.Reset(d.body, d.k, leafRows))
}

// stretch returns the body rows [a, b) an answer walks for reg: those
// whose keys lie in reg's cuboid, up to cut — where a boot entry with
// their key would answer — and lo and top, the range of keys a tail
// row must lie in; a is b when top < lo.
func (d *delta) stretch(reg query.Region, cut lph.Key) (a, b int, lo, top lph.Key) {
	lo, hi := lph.CuboidSpan(reg.PreKey, reg.PreLen)
	top = min(hi-1, cut) // hi is exclusive, and wraps to 0 for the whole key space
	if top < lo {
		return 0, 0, lo, top
	}
	keys := d.keys[:d.body]
	a, _ = slices.BinarySearch(keys, lo)
	b = len(keys)
	if top != ^lph.Key(0) {
		b, _ = slices.BinarySearch(keys, top+1)
	}
	return a, b, lo, top
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
		dst = appendBytes(appendU32(dst, uint32(id)), d.objs[d.row(id)])
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
