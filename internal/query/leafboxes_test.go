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

// column is a point set laid out the way a store holds it for a region's
// descent — Region.Run over the keys, then LeafBoxes.Walk of that run:
// sorted by unrotated key, ties by insertion order, the points row-major.
type column struct {
	k    int
	keys []lph.Key
	pts  []float64
}

func (c column) point(j int) []float64 { return c.pts[j*c.k : (j+1)*c.k] }

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
	c := column{k: p.K(), keys: make([]lph.Key, len(pts))}
	for j, i := range order {
		c.keys[j] = keys[i]
		c.pts = append(c.pts, pts[i]...)
	}
	return c
}

// boxesOf builds the leaf boxes of pts, k coordinates a row, leaf rows a
// leaf.
func boxesOf(pts []float64, k, leaf int) *LeafBoxes {
	x := &LeafBoxes{}
	x.Fill(pts, 0, x.Reset(len(pts)/max(k, 1), k, leaf))
	return x
}

// walkReference is the walk by definition: every leaf that overlaps
// [a, b), its box recomputed from its rows — each coordinate that is not
// NaN — and compared with the cube one dimension at a time, in closed
// intervals; the rows of [a, b) under the boxes that meet the cube are
// set in the result.
func walkReference(pts []float64, k, leaf int, cube []lph.Bounds, a, b int) []bool {
	in := make([]bool, b)
	for l := a / leaf * leaf; l < b; l += leaf {
		meets := true
		for j, c := range cube {
			lo, hi := math.Inf(1), math.Inf(-1)
			for i := l; i < min(l+leaf, len(pts)/k); i++ {
				if x := pts[i*k+j]; !math.IsNaN(x) {
					lo, hi = min(lo, x), max(hi, x)
				}
			}
			if !(hi >= c.Lo && lo <= c.Hi) {
				meets = false
			}
		}
		for i := max(l, a); i < min(l+leaf, b); i++ {
			in[i] = meets
		}
	}
	return in
}

// checkWalk holds Walk over rows [a, b) to walkReference — the same rows
// — and to Region.Contains: the runs are non-empty, disjoint, ascending
// and inside [a, b), and every row of [a, b) the cube contains is in
// one. It returns the contained rows the runs hold.
func checkWalk(t *testing.T, x *LeafBoxes, pts []float64, cube []lph.Bounds, a, b int) []int {
	t.Helper()
	k, r := len(cube), Region{Cube: cube}
	var got []int
	walked := make([]bool, max(a, b))
	end := a
	x.Walk(cube, a, b, func(lo, hi int) {
		if lo >= hi || lo < end || hi > b {
			t.Fatalf("k=%d leaf %d [%d,%d): run [%d,%d) is empty, overlaps an earlier one or leaves the range (the previous ended at %d)",
				k, x.rows, a, b, lo, hi, end)
		}
		end = hi
		for i := lo; i < hi; i++ {
			walked[i] = true
			if r.Contains(pts[i*k : (i+1)*k]) {
				got = append(got, i)
			}
		}
	})
	if a < b {
		if want := walkReference(pts, k, x.rows, cube, a, b); !slices.Equal(walked, want) {
			t.Fatalf("k=%d leaf %d [%d,%d) cube %v: the walk yields rows %v, the boxes by definition %v", k, x.rows, a, b, cube, walked, want)
		}
	}
	for i := a; i < b; i++ {
		if r.Contains(pts[i*k:(i+1)*k]) && !walked[i] {
			t.Fatalf("k=%d leaf %d [%d,%d) cube %v: row %d %v is contained and in no run", k, x.rows, a, b, cube, i, pts[i*k:(i+1)*k])
		}
	}
	return got
}

// checkRegion runs a region's descent over keys[:cut] with leaf boxes
// of leaf rows and compares it with the linear filter — Region.Contains
// over every entry of the prefix's run below cut, found without
// Region.Run — and the walk with its definition (checkWalk). It returns
// the contained positions.
func checkRegion(t *testing.T, p *lph.Partitioner, r Region, c column, cut, leaf int) []int {
	t.Helper()
	var want []int
	first, last := cut, cut
	for j := 0; j < cut; j++ {
		if !lph.SamePrefix(c.keys[j], r.PreKey, r.PreLen) {
			continue
		}
		if first == cut {
			first = j
		}
		last = j + 1
		if r.Contains(c.point(j)) {
			want = append(want, j)
		}
	}
	a, b := r.Run(c.keys)
	b = min(b, cut)
	if a < b && (a != first || b != last) {
		t.Fatalf("prefix %x/%d cut %d: Run gives [%d,%d), the prefix's entries are [%d,%d)", r.PreKey, r.PreLen, cut, a, b, first, last)
	}
	got := checkWalk(t, boxesOf(c.pts, c.k, leaf), c.pts, r.Cube, a, b)
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

// Random points, random cubes, every leaf size from one row to the whole
// column in one leaf.
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
			for _, leaf := range []int{1, 4, 16, 32, 1 << 30} {
				checkRegion(t, p, r, c, len(c.keys), leaf)
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
	if got := checkRegion(t, p, whole, c, len(c.keys), 8); len(got) != len(c.keys) {
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
		if got := checkRegion(t, p, top, c, len(c.keys), 8); len(got) == 0 {
			t.Fatalf("all-ones prefix of length %d found nothing", prelen)
		}
	}
}

// Coordinates and cube edges on a coarse dyadic lattice land exactly on
// split midpoints, on the partitioner bounds and on the boxes' sides:
// the cube and the boxes are closed, and the walk must lose no row that
// touches the cube.
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
				checkRegion(t, p, r, c, len(c.keys), leaf)
			}
		}
	}
}

// Points outside the partitioner bounds are keyed at the boundary
// (clamped) but keep their coordinates, and so do their boxes; a
// hand-built cube reaching past the bounds contains them, and the walk
// must still find them.
func TestDescendClampedPoints(t *testing.T) {
	p := part2d(t)
	rng := rand.New(rand.NewSource(3))
	wide := func() float64 { return -0.5 + 2*rng.Float64() }
	c := newColumn(p, randomPoints(rng, 500, 2, wide))
	outside := 0
	for i := 0; i < 300; i++ {
		r := Region{Cube: randomCube(2, wide)}
		for _, j := range checkRegion(t, p, r, c, len(c.keys), 4) {
			if x, y := c.point(j)[0], c.point(j)[1]; x < 0 || x > 1 || y < 0 || y > 1 {
				outside++
			}
		}
	}
	if outside == 0 {
		t.Fatal("no out-of-bounds point was ever contained: the test does not exercise clamping")
	}
}

// Identical points share one 64-bit key, and their run is longer than a
// leaf; a region that is itself a full key (PreLen 64) has exactly that
// run, which starts and ends inside leaves.
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
	if got := checkRegion(t, p, around, c, len(c.keys), 4); len(got) < 50 {
		t.Fatalf("found %d entries around 50 duplicates", len(got))
	}
	full, ok := Restrict(p, around, p.Hash(dup), lph.M)
	if !ok {
		t.Fatal("the duplicates' own cuboid does not meet a cube around them")
	}
	for _, leaf := range []int{4, 16, 32} {
		if got := checkRegion(t, p, full, c, len(c.keys), leaf); len(got) != 50 {
			t.Fatalf("PreLen 64 region with leaf %d found %d entries, want the 50 duplicates", leaf, len(got))
		}
	}
}

// Algorithm 5 at a surrogate with virtual id vid: the local share is
// the keys ≤ vid of the region's prefix (the descent over a truncated
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
				if r.Contains(c.point(j)) {
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
			got := checkRegion(t, p, r, c, cut, 8)
			for z := lph.FirstZeroBitAfter(vid, r.PreLen); z != 0; z = lph.FirstZeroBitAfter(vid, z) {
				upper := lph.SetBit(lph.Prefix(vid, z-1), z)
				if sub, ok := Restrict(p, r, upper, z); ok {
					got = append(got, checkRegion(t, p, sub, c, len(c.keys), 8)...)
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: decomposition at %x found %d entries, the cube contains %d", fmt.Sprint(r.Cube), vid, len(got), len(want))
			}
		}
	}
}

// walkCase decodes one fuzz input: k in [1, 17] — one past the kernel's
// limit — a leaf of 1 to 64 rows, 0 to 599 rows drawn from raw after
// the cube (boxFloats: NaN, infinities, signed zeros, extremes and any
// float bits), and a range [a, b) cut from anywhere in the column, so
// it starts and ends inside leaves as often as on their edges.
func walkCase(kb, leafb uint8, nb, ab, bb uint16, raw []byte) (cube []lph.Bounds, pts []float64, leaf, a, b int) {
	k, n := 1+int(kb)%17, int(nb)%600
	s := &boxFloats{raw: raw}
	cube = make([]lph.Bounds, k)
	for j := range cube {
		cube[j] = lph.Bounds{Lo: s.next(), Hi: s.next()}
	}
	pts = make([]float64, n*k)
	for i := range pts {
		pts[i] = s.next()
	}
	a, b = int(ab)%(n+1), int(bb)%(n+1)
	return cube, pts, 1 + int(leafb)%64, min(a, b), max(a, b)
}

// FuzzDescend holds LeafBoxes.Walk to the boxes' definition and to
// Region.Contains (checkWalk) on any floats — NaN coordinates, which
// move no bound, and NaN, infinite or inverted cube sides — any k from
// 1 to 17, every leaf size from 1 to 64 and any range of rows (walkCase).
// The seeds are clustered unit-cube rows, as a key-ordered column holds
// them, with special values mixed in.
func FuzzDescend(f *testing.F) {
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 128; i++ {
		k := 1 + i%17
		var raw []byte
		float := func(x float64) {
			raw = binary.LittleEndian.AppendUint64(append(raw, 0xff), math.Float64bits(x))
		}
		for j := 0; j < k; j++ {
			x := rng.Float64()
			float(x - 0.2*rng.Float64())
			float(x + 0.2*rng.Float64())
		}
		n := rng.Intn(600)
		x := make([]float64, k)
		for r := 0; r < n; r++ {
			for j := range x {
				if r%32 == 0 {
					x[j] = rng.Float64()
				}
				if rng.Intn(50) == 0 {
					raw = append(raw, byte(rng.Intn(len(boxValues))))
					continue
				}
				float(x[j] + 0.05*rng.Float64())
			}
		}
		f.Add(uint8(k-1), uint8(rng.Intn(64)), uint16(n), uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16)), raw)
	}
	f.Fuzz(func(t *testing.T, k, leaf uint8, n, a, b uint16, raw []byte) {
		cube, pts, rows, lo, hi := walkCase(k, leaf, n, a, b, raw)
		checkWalk(t, boxesOf(pts, len(cube), rows), pts, cube, lo, hi)
	})
}

// TestDescendAllocatesNothing: a region's run and the walk of its boxes
// cost no heap allocation, whatever they visit and wherever they are cut.
func TestDescendAllocatesNothing(t *testing.T) {
	const k = 6
	p := refinePart(t, k)
	rng := rand.New(rand.NewSource(26))
	c := newColumn(p, randomPoints(rng, 5000, k, func() float64 { return -1.1 + 20*rng.Float64() }))
	x := boxesOf(c.pts, k, 16)
	visited := 0
	visit := func(a, b int) { visited += b - a }
	for _, rc := range refineCases(t, rng, k, 20) {
		cut := rng.Intn(len(c.keys) + 1)
		descend := func() {
			a, b := rc.q.Run(c.keys)
			x.Walk(rc.q.Cube, a, min(b, cut), visit)
		}
		if allocs := testing.AllocsPerRun(10, descend); allocs != 0 {
			t.Fatalf("a descent of %+v cut at %d allocated %.0f times", rc.q, cut, allocs)
		}
	}
	if visited == 0 {
		t.Fatal("no descent visited anything: the test measures nothing")
	}
}
