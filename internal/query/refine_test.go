package query

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"landmarkdht/internal/lph"
)

// refineReference is the loop Refine replaced in core and netrt, kept as
// its definition: one Restrict, from the root, per zero bit of vid past
// the prefix.
func refineReference(p *lph.Partitioner, q Region, vid lph.Key) []Region {
	if !lph.SamePrefix(q.PreKey, vid, q.PreLen) {
		return nil
	}
	var out []Region
	for z := lph.FirstZeroBitAfter(vid, q.PreLen); z != 0; z = lph.FirstZeroBitAfter(vid, z) {
		if sub, ok := Restrict(p, q, lph.SetBit(lph.Prefix(vid, z-1), z), z); ok {
			out = append(out, sub)
		}
	}
	return out
}

// refinePart is the partitioner of every Refine test for k dimensions.
// The bounds differ per dimension and are not dyadic, so the midpoints
// round.
func refinePart(tb testing.TB, k int) *lph.Partitioner {
	tb.Helper()
	b := make([]lph.Bounds, k)
	for j := range b {
		b[j] = lph.Bounds{Lo: -1.1 - 3.3*float64(j), Hi: 7.7 + 0.7*float64(j*j)}
	}
	p, err := lph.NewWithBounds(b)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// checkRefine holds Refine to refineReference: the same regions in the
// same order, every float by its bits (stricter than reflect.DeepEqual,
// which would pass -0 for +0, and usable on a NaN), each cube its own
// memory. It returns how many regions that was.
func checkRefine(t *testing.T, p *lph.Partitioner, q Region, vid lph.Key) int {
	t.Helper()
	in := q.Clone()
	var (
		got   []Region
		cubes Cubes
	)
	Refine(p, q, vid, &cubes, func(r Region) { got = append(got, r) })
	want := refineReference(p, in, vid)
	if len(got) != len(want) {
		t.Fatalf("k=%d %+v vid %#x: %d regions, reference %d", p.K(), in, vid, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.PreKey != w.PreKey || g.PreLen != w.PreLen || len(g.Cube) != len(w.Cube) {
			t.Fatalf("k=%d %+v vid %#x: region %d is %+v, reference %+v", p.K(), in, vid, i, g, w)
		}
		for j := range g.Cube {
			if math.Float64bits(g.Cube[j].Lo) != math.Float64bits(w.Cube[j].Lo) ||
				math.Float64bits(g.Cube[j].Hi) != math.Float64bits(w.Cube[j].Hi) {
				t.Fatalf("k=%d %+v vid %#x: region %d dim %d is %+v, reference %+v", p.K(), in, vid, i, j, g.Cube[j], w.Cube[j])
			}
		}
		if i > 0 && &g.Cube[0] == &got[i-1].Cube[0] || &g.Cube[0] == &q.Cube[0] {
			t.Fatalf("k=%d vid %#x: region %d shares its cube", p.K(), vid, i)
		}
	}
	for j := range in.Cube {
		if math.Float64bits(q.Cube[j].Lo) != math.Float64bits(in.Cube[j].Lo) ||
			math.Float64bits(q.Cube[j].Hi) != math.Float64bits(in.Cube[j].Hi) {
			t.Fatalf("k=%d vid %#x: Refine changed its input cube", p.K(), vid)
		}
	}
	return len(got)
}

// refineCase is one (region, surrogate) pair; the partitioner is
// refinePart(len(q.Cube)).
type refineCase struct {
	q   Region
	vid lph.Key
}

// refineCases draws n rounds of every shape the decomposition meets for
// k dimensions: ids anywhere under the prefix, ids hashed from points
// inside the cube (the surrogate of a region it answers), prefixes
// shorter than the natural one (routeAt ships a region unsplit when both
// halves share a next hop), zero-radius cubes, cubes that end exactly on
// a midpoint of the surrogate's path, PreLen 0 and 64, ids outside the
// prefix, and cubes no validated query has — widened past their cuboid
// (a decoded 16-bit wire cube), inverted, NaN — which netrt must still
// decompose the way it did.
func refineCases(tb testing.TB, rng *rand.Rand, k, n int) []refineCase {
	p := refinePart(tb, k)
	draw := func(j int) float64 {
		b := p.Bounds(j)
		return b.Lo + rng.Float64()*(b.Hi-b.Lo)
	}
	region := func(radius float64) Region {
		c := make([]lph.Bounds, k)
		for j := range c {
			x := draw(j)
			c[j] = lph.Bounds{Lo: x - radius*rng.Float64(), Hi: x + radius*rng.Float64()}
		}
		q, err := New(p, c)
		if err != nil {
			tb.Fatal(err)
		}
		return q
	}
	under := func(q Region) lph.Key { return q.PreKey | rng.Uint64()&^lph.PrefixMask(q.PreLen) }
	inside := func(q Region) lph.Key {
		pt := make([]float64, k)
		for j, b := range q.Cube {
			pt[j] = b.Lo + rng.Float64()*(b.Hi-b.Lo)
		}
		return p.Hash(pt)
	}
	var out []refineCase
	for i := 0; i < n; i++ {
		radius := []float64{0, 1e-9, 0.01, 0.5, 3, 20}[rng.Intn(6)]
		q := region(radius)
		out = append(out, refineCase{q, under(q)}, refineCase{q, inside(q)}, refineCase{q, rng.Uint64()})

		short := q
		short.PreLen = rng.Intn(q.PreLen + 1)
		short.PreKey = lph.Prefix(q.PreKey, short.PreLen)
		out = append(out, refineCase{short, under(short)}, refineCase{short, inside(short)})

		whole := q
		whole.PreKey, whole.PreLen = 0, 0
		out = append(out, refineCase{whole, rng.Uint64()})

		// A cube side set to the midpoint the path divides at, at a level
		// past the prefix: the sibling above it touches the cube in one
		// point (closed intervals), the one below in its whole side.
		if vid := inside(q); q.PreLen < lph.M {
			z := q.PreLen + 1 + rng.Intn(lph.M-q.PreLen)
			mid := p.SplitMid(vid, z)
			touch := q.Clone()
			if j := (z - 1) % k; rng.Intn(2) == 0 {
				touch.Cube[j].Hi = mid
				touch.Cube[j].Lo = math.Min(touch.Cube[j].Lo, mid)
			} else {
				touch.Cube[j].Lo = mid
				touch.Cube[j].Hi = math.Max(touch.Cube[j].Hi, mid)
			}
			out = append(out, refineCase{touch, vid})
		}

		point := region(0)
		leaf := Region{Cube: point.Cube, PreKey: inside(point), PreLen: lph.M}
		out = append(out, refineCase{point, inside(point)}, refineCase{leaf, leaf.PreKey}, refineCase{leaf, leaf.PreKey ^ 1})

		odd := q.Clone()
		j := rng.Intn(k)
		switch rng.Intn(4) {
		case 0:
			odd.Cube[j].Lo -= 0.3
			odd.Cube[j].Hi += 0.3
		case 1:
			odd.Cube[j].Lo, odd.Cube[j].Hi = odd.Cube[j].Hi+1, odd.Cube[j].Lo
		case 2:
			odd.Cube[j].Lo = math.NaN()
		case 3:
			odd.Cube[j].Hi = math.Inf(1)
		}
		out = append(out, refineCase{odd, under(odd)})
	}
	return out
}

var refineDims = []int{1, 2, 3, 6, 10}

func TestRefineMatchesRestrict(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	emitted := 0
	for _, k := range refineDims {
		p := refinePart(t, k)
		for _, c := range refineCases(t, rng, k, 1500) {
			emitted += checkRefine(t, p, c.q, c.vid)
		}
	}
	if emitted < 10000 {
		t.Fatalf("the cases emit %d regions in all: too few to compare anything", emitted)
	}
}

// TestRefineAllocatesOnlySurvivors pins what the one walk is for: a
// surrogate far from a small cube costs the one cube it emits, not a
// clone per zero bit of its id.
func TestRefineAllocatesOnlySurvivors(t *testing.T) {
	p, err := lph.New(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := Region{Cube: cube(0.8, 0.9, 0.8, 0.9)} // whole-space prefix, cube in the top corner
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		n = 0
		Refine(p, q, 0, nil, func(Region) { n++ }) // vid 0: all 64 bits zero, the path runs to the bottom corner
	})
	// The sibling of bit 1 (x ≥ 0.5) holds the cube; the path's own half,
	// x ≤ 0.5, does not meet it, and neither does any sibling below.
	if n != 1 || allocs != 1 {
		t.Fatalf("%d regions, %.0f allocations; want 1 and 1", n, allocs)
	}
	checkRefine(t, p, q, 0)
}

// FuzzRefine feeds Refine arbitrary prefixes, ids and cube floats — any
// bit pattern, so NaNs, infinities and inverted sides too — against the
// reference loop. vid is forced under the prefix unless stray is set: a
// random id almost never shares a long prefix.
func FuzzRefine(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range refineDims {
		for _, c := range refineCases(f, rng, k, 8) {
			raw := make([]byte, 0, 16*k)
			for _, b := range c.q.Cube {
				raw = binary.BigEndian.AppendUint64(raw, math.Float64bits(b.Lo))
				raw = binary.BigEndian.AppendUint64(raw, math.Float64bits(b.Hi))
			}
			f.Add(uint8(k), c.q.PreKey, uint8(c.q.PreLen), c.vid, true, raw)
		}
	}
	f.Fuzz(func(t *testing.T, k uint8, prekey uint64, prelen uint8, vid uint64, stray bool, raw []byte) {
		if k == 0 || k > 20 || len(raw) < 16*int(k) {
			return
		}
		q := Region{Cube: make([]lph.Bounds, k), PreLen: int(prelen) % (lph.M + 1)}
		q.PreKey = lph.Prefix(prekey, q.PreLen)
		for j := range q.Cube {
			q.Cube[j].Lo = math.Float64frombits(binary.BigEndian.Uint64(raw[16*j:]))
			q.Cube[j].Hi = math.Float64frombits(binary.BigEndian.Uint64(raw[16*j+8:]))
		}
		if !stray {
			vid = q.PreKey | vid&^lph.PrefixMask(q.PreLen)
		}
		checkRefine(t, refinePart(t, int(k)), q, vid)
	})
}
