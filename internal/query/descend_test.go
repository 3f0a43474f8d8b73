package query

import (
	"fmt"
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

// checkDescend runs Descend over keys[:cut] and compares it with the
// linear filter — Region.Contains over every entry of the prefix's run
// below cut: equal position sets, visited runs ascending, disjoint and
// inside the run (so no entry is visited twice and visits ≤ run
// length). It returns the contained positions.
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
	Descend(p, r, c.keys[:cut], leaf, func(a, b int) {
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
	})
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
