package query

import (
	"math/bits"
	"slices"
	"sort"

	"landmarkdht/internal/lph"
)

// Rows is a scan index over rows of a ring key, an id, a ref and k
// float64 coordinates (the index point): what a node tests against a
// query's cube before it refines exactly. What a ref names is the
// caller's — an entry's storage position, an object's slot — and Rows
// never reads it; it is ≥ 0.
//
// Rows [0, body) are the body, in (key, id) order, so the rows under a
// key range are one stretch of it, found by binary search; every
// rowsLeaf of them lie under one leaf box (LeafBoxes), so a scan tests
// the boxes first and the rows only under those that meet the cube. The
// rows after the body are the tail, the latest additions in no order,
// each tested. Add appends to the tail. Kill replaces a tail row by the
// last one; a body row stays where it is until the next merge, dead: its
// ref −1, which a scan does not return (a NaN point could not mark a row
// of no coordinates), its box unchanged. Settle merges the tail into
// the body, and drops the dead rows, once the two reach rowsMerge or the
// tail outgrows the body, so a scan tests at most a Box.Mask call's
// worth of rows without a box, and at most half of them.
type Rows struct {
	rows  []row
	pts   []float64 // row r's point is pts[r*k : (r+1)*k]
	k     int       // set by the first row
	body  int       // rows [0, body) are sorted and boxed
	dead  int       // body rows killed since the last merge
	boxes LeafBoxes

	// spare and sparePts are merge's scratch: the tail, sorted and set
	// aside.
	spare    []row
	sparePts []float64
}

// row is a row but for its point.
type row struct {
	key     lph.Key
	id, ref int32
}

func (r row) before(o row) bool { return r.key < o.key || r.key == o.key && r.id < o.id }

const (
	// rowsLeaf is the number of consecutive body rows under one box. A
	// core region holds a few hundred rows and cubes are wide: 4 and 16
	// both scan slower, and so does a second level of boxes above these;
	// netrt's published extras read the same at 8, 16 and 32
	// (EXPERIMENTS.md).
	rowsLeaf = 8
	// rowsMerge bounds the tail and the dead rows together: a scan tests
	// the tail in one Box.Mask call, and a merge, which moves the whole
	// body, runs once per that many additions and kills. A publish into
	// 10⁴ extras costs ≈ 4 µs at 64, 6–9 at 32 and 11–14 at 16.
	rowsMerge = 64
)

// Len returns the number of rows, dead ones included.
func (x *Rows) Len() int { return len(x.rows) }

// ID returns row r's id.
func (x *Rows) ID(r int) int32 { return x.rows[r].id }

// Ref returns row r's ref, −1 for a dead row.
func (x *Rows) Ref(r int) int32 { return x.rows[r].ref }

// Reset drops every row.
func (x *Rows) Reset() {
	x.rows, x.pts = x.rows[:0], x.pts[:0]
	x.body, x.dead = 0, 0
}

// Grow makes room for n more rows of k coordinates.
func (x *Rows) Grow(n, k int) {
	x.rows, x.pts = slices.Grow(x.rows, n), slices.Grow(x.pts, n*k)
}

// Add appends a row to the tail. The first row of empty Rows sets the
// point length every row has.
func (x *Rows) Add(key lph.Key, id, ref int32, pt []float64) {
	if len(x.rows) == 0 {
		x.k = len(pt)
	}
	x.rows = append(x.rows, row{key, id, ref})
	x.pts = append(x.pts, pt...)
}

// search returns the first body row whose key is at least key, or
// body.
func (x *Rows) search(key lph.Key) int {
	lo, hi := 0, x.body
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); x.rows[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Find returns the live row holding (key, id), or −1: the body's by
// binary search, else the tail's.
func (x *Rows) Find(key lph.Key, id int32) int {
	for r := x.search(key); r < x.body && x.rows[r].key == key; r++ {
		if x.rows[r].id == id && x.rows[r].ref >= 0 {
			return r
		}
	}
	for r := x.body; r < len(x.rows); r++ {
		if x.rows[r].key == key && x.rows[r].id == id {
			return r
		}
	}
	return -1
}

// Kill removes live row r. A later row may take its place.
func (x *Rows) Kill(r int) {
	if r < x.body {
		x.rows[r].ref = -1
		x.dead++
		return
	}
	last := len(x.rows) - 1
	x.move(r, last, 1)
	x.rows, x.pts = x.rows[:last], x.pts[:last*x.k]
}

// move copies rows [from, from+n) over rows [to, to+n); the two ranges
// may overlap.
func (x *Rows) move(to, from, n int) {
	copy(x.rows[to:to+n], x.rows[from:from+n])
	copy(x.pts[to*x.k:(to+n)*x.k], x.pts[from*x.k:(from+n)*x.k])
}

// Settle merges the tail into the body once the tail and the dead rows
// reach rowsMerge, or the tail outgrows the body: a first build is
// boxed whole, and a scan tests at most half its rows without a box.
func (x *Rows) Settle() {
	if t := len(x.rows) - x.body; t+x.dead >= rowsMerge || t > x.body {
		x.merge()
	}
}

// tail is Rows' tail as a sort.Interface: by (key, id), each point
// moving with its row, in place.
type tail Rows

func (t *tail) Len() int           { return len(t.rows) - t.body }
func (t *tail) Less(i, j int) bool { return t.rows[t.body+i].before(t.rows[t.body+j]) }
func (t *tail) Swap(i, j int) {
	i, j = t.body+i, t.body+j
	t.rows[i], t.rows[j] = t.rows[j], t.rows[i]
	for c := range t.k {
		t.pts[i*t.k+c], t.pts[j*t.k+c] = t.pts[j*t.k+c], t.pts[i*t.k+c]
	}
}

// merge sorts the tail into the body and drops the dead rows, in the
// columns Rows already has: the tail is sorted in place and the live
// body rows close up. With none left the sorted tail is the body;
// otherwise the tail is set aside and the two runs are merged from the
// top down, so no row is overwritten before it has moved, the body rows
// between two tail rows' places moving as one block. Then the boxes are
// refilled.
func (x *Rows) merge() {
	k, t := x.k, len(x.rows)-x.body
	sort.Sort((*tail)(x))
	live := x.body
	if x.dead > 0 {
		live = 0
		for r := 0; r < x.body; {
			end := r
			for end < x.body && x.rows[end].ref >= 0 {
				end++
			}
			x.move(live, r, end-r)
			live, r = live+end-r, end+1 // end is dead, or the body's end
		}
	}
	if live == 0 {
		x.move(0, x.body, t)
	} else {
		x.spare = append(x.spare[:0], x.rows[x.body:]...)
		x.sparePts = append(x.sparePts[:0], x.pts[x.body*k:]...)
		i, to := live, live+t // body rows [0, i) and rows [to, …) are in place
		for j := t - 1; j >= 0; j-- {
			p := sort.Search(i, func(r int) bool { return x.spare[j].before(x.rows[r]) })
			to -= i - p
			x.move(to, p, i-p)
			i, to = p, to-1
			x.rows[to] = x.spare[j]
			copy(x.pts[to*k:(to+1)*k], x.sparePts[j*k:])
		}
	}
	x.body, x.dead = live+t, 0
	x.rows, x.pts = x.rows[:x.body], x.pts[:x.body*k]
	x.boxes.Fill(x.pts, 0, x.boxes.Reset(x.body, k, rowsLeaf))
	if t > rowsMerge {
		x.spare, x.sparePts = nil, nil // a bulk load's scratch is not kept
	}
}

// Scan appends to buf the rows whose keys lie in [lo, hi] and whose
// points the cube contains, and returns it with the number of rows it
// compared with the cube. The test is Region.Contains' — same length,
// every coordinate in its closed interval — made by Box.Mask, 64 rows a
// call, only under the leaf boxes that meet the cube (LeafBoxes.Walk)
// within the body's stretch of keys in [lo, hi], then on the whole tail;
// of the tail's rows that pass, those outside [lo, hi] are dropped, and
// so are the dead rows. Rows come out in ascending order. Nothing is
// allocated when buf has room, for up to 16 dimensions.
func (x *Rows) Scan(cube []lph.Bounds, lo, hi lph.Key, buf []int32) ([]int32, int) {
	if len(cube) != x.k || lo > hi {
		return buf, 0
	}
	var in Box
	in.Set(cube)
	a, b := x.search(lo), x.body
	if hi != ^lph.Key(0) {
		b = x.search(hi + 1)
	}
	tested, n := len(x.rows)-x.body, len(buf)
	x.boxes.Walk(cube, a, b, func(r0, r1 int) {
		tested += r1 - r0
		buf = x.appendIn(&in, r0, r1, buf)
	})
	tail := len(buf)
	buf = x.appendIn(&in, x.body, len(x.rows), buf)
	if x.dead > 0 {
		tail = n // and the body's, which may hold a dead row
	}
	kept := slices.DeleteFunc(buf[tail:], func(r int32) bool {
		row := x.rows[r]
		return row.ref < 0 || row.key < lo || row.key > hi
	})
	return buf[:tail+len(kept)], tested
}

// appendIn tests rows [a, b) against in, 64 rows a call, and appends
// those inside.
func (x *Rows) appendIn(in *Box, a, b int, buf []int32) []int32 {
	for ; a < b; a += 64 {
		for m := in.Mask(x.pts[a*x.k:], min(b-a, 64)); m != 0; m &= m - 1 {
			buf = append(buf, int32(a+bits.TrailingZeros64(m)))
		}
	}
	return buf
}
