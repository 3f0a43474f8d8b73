package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"landmarkdht/internal/lph"
)

// column is a point set laid out the way a store would hold it for
// Descend: sorted by unrotated key, ties by insertion order.
type column struct {
	keys []lph.Key
	pts  [][]float64
}

func newColumn(p *lph.Partitioner, pts [][]float64) column {
	order := make([]int, len(pts))
	keys := make([]lph.Key, len(pts))
	for i, pt := range pts {
		order[i] = i
		keys[i] = p.Hash(pt)
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case keys[a] < keys[b]:
			return -1
		case keys[a] > keys[b]:
			return 1
		}
		return 0
	})
	c := column{keys: make([]lph.Key, len(pts)), pts: make([][]float64, len(pts))}
	for j, i := range order {
		c.keys[j], c.pts[j] = keys[i], pts[i]
	}
	return c
}

// descendReference is the walk SplitIndex.Descend replaced, kept as its
// definition: the prefix's run found by binary search in keys, every
// bisected run split by a binary search for SetBit(prekey, pos), both
// over the column truncated at the cut.
func descendReference(p *lph.Partitioner, r Region, keys []lph.Key, leaf int, visit func(a, b int)) {
	lo, hi := lph.CuboidSpan(r.PreKey, r.PreLen)
	a, _ := slices.BinarySearch(keys, lo)
	b := len(keys)
	if last := hi - 1; last != ^lph.Key(0) {
		b, _ = slices.BinarySearch(keys, last+1)
	}
	w := referenceWalk{k: p.K(), cube: r.Cube, cu: p.Cuboid(r.PreKey, r.PreLen), keys: keys, leaf: leaf, visit: visit}
	w.walk(r.PreKey, r.PreLen, a, b)
}

type referenceWalk struct {
	k     int
	cube  []lph.Bounds
	cu    []lph.Bounds
	keys  []lph.Key
	leaf  int
	visit func(a, b int)
}

func (d *referenceWalk) walk(prekey lph.Key, prelen, a, b int) {
	if a >= b {
		return
	}
	if b-a <= d.leaf || prelen == lph.M {
		d.visit(a, b)
		return
	}
	pos := prelen + 1
	j := prelen % d.k
	was := d.cu[j]
	mid := was.Mid()
	upper := lph.SetBit(prekey, pos)
	m, _ := slices.BinarySearch(d.keys[a:b], upper)
	m += a
	if d.cube[j].Lo <= mid {
		d.cu[j].Hi = mid
		d.walk(prekey, pos, a, m)
		d.cu[j] = was
	}
	if d.cube[j].Hi >= mid {
		d.cu[j].Lo = mid
		d.walk(upper, pos, m, b)
		d.cu[j] = was
	}
}

// checkVisits holds x.Descend to descendReference over keys[:cut]: the
// same runs, in the same order. It returns them.
func checkVisits(t *testing.T, p *lph.Partitioner, r Region, x *SplitIndex, cut int) []leafRun {
	t.Helper()
	var got, want []leafRun
	x.Descend(p, r, cut, func(a, b int) { got = append(got, leafRun{a, b}) })
	descendReference(p, r, x.keys[:cut], x.leaf, func(a, b int) { want = append(want, leafRun{a, b}) })
	if !slices.Equal(got, want) {
		t.Fatalf("prefix %x/%d cut %d leaf %d: the index visits %v, the binary searches %v", r.PreKey, r.PreLen, cut, x.leaf, got, want)
	}
	return got
}

type leafRun struct{ a, b int }

// checkDescend runs Descend over keys[:cut] and compares it with the
// reference walk (checkVisits) and with the linear filter —
// Region.Contains over every entry of the prefix's run below cut: equal
// position sets, visited runs ascending, disjoint and inside the run (so
// no entry is visited twice and visits ≤ run length). It returns the
// contained positions.
func checkDescend(t *testing.T, p *lph.Partitioner, r Region, c column, cut, leaf int) []int {
	t.Helper()
	var want []int
	first, last := -1, -1
	for j := 0; j < cut; j++ {
		if !lph.SamePrefix(c.keys[j], r.PreKey, r.PreLen) {
			continue
		}
		if first < 0 {
			first = j
		}
		last = j
		if r.Contains(c.pts[j]) {
			want = append(want, j)
		}
	}
	var got []int
	end := first
	for _, v := range checkVisits(t, p, r, NewSplitIndex(c.keys, leaf), cut) {
		a, b := v.a, v.b
		if a >= b {
			t.Fatalf("empty visit [%d,%d)", a, b)
		}
		if a < end || b > last+1 {
			t.Fatalf("visit [%d,%d) overlaps an earlier one or leaves the prefix run [%d,%d] (previous visit ended at %d)", a, b, first, last, end)
		}
		if b-a > leaf && c.keys[a] != c.keys[b-1] {
			t.Fatalf("visit [%d,%d) is longer than the leaf %d and spans more than one key", a, b, leaf)
		}
		end = b
		for j := a; j < b; j++ {
			if r.Contains(c.pts[j]) {
				got = append(got, j)
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("prefix %x/%d cut %d leaf %d: descent found %d entries, linear filter %d\n got %v\nwant %v",
			r.PreKey, r.PreLen, cut, leaf, len(got), len(want), got, want)
	}
	return got
}

func randomPoints(rng *rand.Rand, n, k int, draw func() float64) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, k)
		for j := range pts[i] {
			pts[i][j] = draw()
		}
	}
	return pts
}

func randomCube(k int, draw func() float64) []lph.Bounds {
	cube := make([]lph.Bounds, k)
	for j := range cube {
		lo, hi := draw(), draw()
		if hi < lo {
			lo, hi = hi, lo
		}
		cube[j] = lph.Bounds{Lo: lo, Hi: hi}
	}
	return cube
}

// Random points, random cubes, every leaf size from "always bisect to
// the key" to "the whole run is one leaf".
func TestDescendMatchesLinearFilter(t *testing.T) {
	for _, k := range []int{1, 2, 3, 6} {
		p, err := lph.New(k, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(k)))
		c := newColumn(p, randomPoints(rng, 700, k, rng.Float64))
		for i := 0; i < 200; i++ {
			r, err := New(p, randomCube(k, rng.Float64))
			if err != nil {
				t.Fatal(err)
			}
			for _, leaf := range []int{1, 4, 32, 1 << 30} {
				checkDescend(t, p, r, c, len(c.keys), leaf)
			}
		}
	}
}

// A region with PreLen 0 spans the whole ring: CuboidSpan's hi wraps to
// 0 there (and for every all-ones prefix), which a half-open binary
// search reads as an empty run.
func TestDescendWholeRingAndTopPrefixes(t *testing.T) {
	p := part2d(t)
	rng := rand.New(rand.NewSource(2))
	c := newColumn(p, randomPoints(rng, 300, 2, rng.Float64))
	whole := Region{Cube: cube(0, 1, 0, 1)}
	if got := checkDescend(t, p, whole, c, len(c.keys), 8); len(got) != len(c.keys) {
		t.Fatalf("whole-ring region found %d of %d entries", len(got), len(c.keys))
	}
	for prelen := 1; prelen <= 6; prelen++ {
		top, ok := Restrict(p, whole, ^lph.Key(0), prelen)
		if !ok {
			t.Fatalf("all-ones prefix of length %d is empty", prelen)
		}
		if _, hi := lph.CuboidSpan(top.PreKey, top.PreLen); hi != 0 {
			t.Fatalf("all-ones prefix of length %d: hi = %x, expected the wrap to 0", prelen, hi)
		}
		if got := checkDescend(t, p, top, c, len(c.keys), 8); len(got) == 0 {
			t.Fatalf("all-ones prefix of length %d found nothing", prelen)
		}
	}
}

// Coordinates and cube edges on a coarse dyadic lattice land exactly on
// split midpoints and on the partitioner bounds: Hash sends x == mid
// down, the cube is closed, and the prune rule must lose neither side.
func TestDescendMidpointsAndBounds(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		p, err := lph.New(k, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(10 + k)))
		lattice := func() float64 { return float64(rng.Intn(9)) / 8 }
		c := newColumn(p, randomPoints(rng, 600, k, lattice))
		for i := 0; i < 300; i++ {
			r, err := New(p, randomCube(k, lattice))
			if err != nil {
				t.Fatal(err)
			}
			for _, leaf := range []int{1, 5, 32} {
				checkDescend(t, p, r, c, len(c.keys), leaf)
			}
		}
	}
}

// Points outside the partitioner bounds are keyed at the boundary
// (clamped) but keep their coordinates; a hand-built cube reaching past
// the bounds contains them, and the descent must still find them.
func TestDescendClampedPoints(t *testing.T) {
	p := part2d(t)
	rng := rand.New(rand.NewSource(3))
	wide := func() float64 { return -0.5 + 2*rng.Float64() }
	c := newColumn(p, randomPoints(rng, 500, 2, wide))
	outside := 0
	for i := 0; i < 300; i++ {
		r := Region{Cube: randomCube(2, wide)}
		for _, j := range checkDescend(t, p, r, c, len(c.keys), 4) {
			if x, y := c.pts[j][0], c.pts[j][1]; x < 0 || x > 1 || y < 0 || y > 1 {
				outside++
			}
		}
	}
	if outside == 0 {
		t.Fatal("no out-of-bounds point was ever contained: the test does not exercise clamping")
	}
}

// Identical points share one 64-bit key: the walk bottoms out at
// PreLen 64 with more entries than the leaf and must hand them over in
// one piece; a region that is itself a full key (PreLen 64) starts
// there.
func TestDescendDuplicateKeysAndFullPrefix(t *testing.T) {
	p := part2d(t)
	rng := rand.New(rand.NewSource(4))
	pts := randomPoints(rng, 200, 2, rng.Float64)
	dup := []float64{0.3, 0.7}
	for i := 0; i < 50; i++ {
		pts = append(pts, dup)
	}
	c := newColumn(p, pts)
	around := Region{Cube: cube(0.25, 0.35, 0.65, 0.75)}
	if got := checkDescend(t, p, around, c, len(c.keys), 4); len(got) < 50 {
		t.Fatalf("found %d entries around 50 duplicates", len(got))
	}
	full, ok := Restrict(p, around, p.Hash(dup), lph.M)
	if !ok {
		t.Fatal("the duplicates' own cuboid does not meet a cube around them")
	}
	if got := checkDescend(t, p, full, c, len(c.keys), 4); len(got) != 50 {
		t.Fatalf("PreLen 64 region found %d entries, want the 50 duplicates", len(got))
	}
}

// Algorithm 5 at a surrogate with virtual id vid: the local share is
// the keys ≤ vid of the region's prefix (Descend over a truncated
// column) and one clipped sub-cuboid per zero bit of vid past the
// prefix covers the rest. Together they must find every contained
// entry of the column exactly once.
func TestDescendDecompositionCoversExactly(t *testing.T) {
	for _, k := range []int{2, 4} {
		p, err := lph.New(k, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(20 + k)))
		c := newColumn(p, randomPoints(rng, 800, k, rng.Float64))
		for i := 0; i < 200; i++ {
			r, err := New(p, randomCube(k, rng.Float64))
			if err != nil {
				t.Fatal(err)
			}
			var want []int
			for j := range c.keys {
				if r.Contains(c.pts[j]) {
					want = append(want, j)
				}
			}
			// A surrogate inside the prefix, at a stored key half the time.
			lo, _ := lph.CuboidSpan(r.PreKey, r.PreLen)
			vid := lo | rng.Uint64()&^lph.PrefixMask(r.PreLen)
			if rng.Intn(2) == 0 {
				if j := rng.Intn(len(c.keys)); lph.SamePrefix(c.keys[j], r.PreKey, r.PreLen) {
					vid = c.keys[j]
				}
			}
			cut, _ := slices.BinarySearch(c.keys, vid+1)
			if vid == ^lph.Key(0) {
				cut = len(c.keys)
			}
			got := checkDescend(t, p, r, c, cut, 8)
			for z := lph.FirstZeroBitAfter(vid, r.PreLen); z != 0; z = lph.FirstZeroBitAfter(vid, z) {
				upper := lph.SetBit(lph.Prefix(vid, z-1), z)
				if sub, ok := Restrict(p, r, upper, z); ok {
					got = append(got, checkDescend(t, p, sub, c, len(c.keys), 8)...)
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: decomposition at %x found %d entries, the cube contains %d", fmt.Sprint(r.Cube), vid, len(got), len(want))
			}
		}
	}
}

// fuzzKeyRecord is the size of one record of a FuzzDescend key column:
// 8 bytes x, a shift s and a repeat count r. The record's key is the
// previous record's key XOR x>>(s%65), so it shares at least s%65
// leading bits with it — any depth of common prefix is as likely as
// none — and it is repeated 1+r%96 times, past the largest leaf the fuzz
// draws. The column is the keys sorted, at most fuzzMaxKeys of them.
const (
	fuzzKeyRecord = 10
	fuzzMaxKeys   = 4096
)

func decodeKeyColumn(col []byte) []lph.Key {
	var keys []lph.Key
	var key lph.Key
	for ; len(col) >= fuzzKeyRecord && len(keys) < fuzzMaxKeys; col = col[fuzzKeyRecord:] {
		key ^= binary.BigEndian.Uint64(col) >> (col[8] % 65)
		for n := 1 + int(col[9]%96); n > 0 && len(keys) < fuzzMaxKeys; n-- {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	return keys
}

// appendKeyRecord appends the record that turns prev into key, repeat
// times.
func appendKeyRecord(col []byte, prev, key lph.Key, repeat int) []byte {
	col = binary.BigEndian.AppendUint64(col, prev^key)
	return append(col, 0, byte(repeat-1))
}

// FuzzDescend holds SplitIndex.Descend to the binary-search walk it
// replaced (checkVisits: the same runs in the same order) on any key
// column — duplicates, runs of one full key longer than the leaf, keys
// sharing prefixes of any length — any cube floats (NaN, infinities,
// inverted sides, as FuzzRefine draws them), any prefix, including ones
// deeper than the index reaches (onKey picks the prefix of a stored
// key), any cut and every leaf from 1 to 64. The seeds are refineCases'
// regions over columns hashed from points of their partitioner.
func FuzzDescend(f *testing.F) {
	rng := rand.New(rand.NewSource(25))
	for _, k := range append(slices.Clone(refineDims), 17) {
		p := refinePart(f, k)
		for i, c := range refineCases(f, rng, k, 2) {
			var col []byte
			var prev lph.Key
			pt := make([]float64, k)
			for n := 0; n < 150; n++ {
				for j := range pt {
					b := p.Bounds(j)
					pt[j] = b.Lo + rng.Float64()*(b.Hi-b.Lo)
				}
				key, repeat := p.Hash(pt), 1
				if rng.Intn(10) == 0 {
					repeat = 1 + rng.Intn(96)
				}
				col = appendKeyRecord(col, prev, key, repeat)
				prev = key
			}
			raw := make([]byte, 0, 16*k)
			for _, b := range c.q.Cube {
				raw = binary.BigEndian.AppendUint64(raw, math.Float64bits(b.Lo))
				raw = binary.BigEndian.AppendUint64(raw, math.Float64bits(b.Hi))
			}
			cut := uint16(math.MaxUint16)
			if i%2 == 1 {
				cut = uint16(rng.Intn(1 << 16))
			}
			f.Add(uint8(k), uint8(i), c.q.PreKey, uint8(c.q.PreLen), i%3 == 0, cut, raw, col)
		}
	}
	f.Fuzz(func(t *testing.T, k, leaf uint8, prekey uint64, prelen uint8, onKey bool, cut uint16, raw, col []byte) {
		if k == 0 || k > 20 || len(raw) < 16*int(k) {
			return
		}
		keys := decodeKeyColumn(col)
		if onKey && len(keys) > 0 {
			prekey = keys[prekey%uint64(len(keys))]
		}
		r := Region{Cube: make([]lph.Bounds, k), PreLen: int(prelen) % (lph.M + 1)}
		r.PreKey = lph.Prefix(prekey, r.PreLen)
		for j := range r.Cube {
			r.Cube[j].Lo = math.Float64frombits(binary.BigEndian.Uint64(raw[16*j:]))
			r.Cube[j].Hi = math.Float64frombits(binary.BigEndian.Uint64(raw[16*j+8:]))
		}
		x := NewSplitIndex(keys, 1+int(leaf)%64)
		checkVisits(t, refinePart(t, int(k)), r, x, min(int(cut), len(keys)))
	})
}

// TestDescendAllocatesNothing: a descent over a built index costs no
// heap allocation, whatever it visits and wherever it is cut.
func TestDescendAllocatesNothing(t *testing.T) {
	const k = 6
	p := refinePart(t, k)
	rng := rand.New(rand.NewSource(26))
	c := newColumn(p, randomPoints(rng, 5000, k, func() float64 { return -1.1 + 20*rng.Float64() }))
	x := NewSplitIndex(c.keys, 32)
	visited := 0
	visit := func(a, b int) { visited += b - a }
	for _, rc := range refineCases(t, rng, k, 20) {
		cut := rng.Intn(len(c.keys) + 1)
		if allocs := testing.AllocsPerRun(10, func() { x.Descend(p, rc.q, cut, visit) }); allocs != 0 {
			t.Fatalf("a descent of %+v cut at %d allocated %.0f times", rc.q, cut, allocs)
		}
	}
	if visited == 0 {
		t.Fatal("no descent visited anything: the test measures nothing")
	}
}
