// Package query implements the range-query geometry of §3.3: query
// regions tagged with prefix keys, the initial prefix computation
// ("the code of the smallest hypercuboid that can completely hold the
// query region"), and QuerySplit (Algorithm 4), which bisects a region
// at its next k-d division.
package query

import (
	"fmt"
	"math"
	"slices"

	"landmarkdht/internal/lph"
)

// Region is a (sub)query in the index space: a hypercube plus the
// prefix identifying the smallest enclosing cuboid discovered so far.
// The bits of PreKey beyond PreLen are always zero (the paper's
// "padding zeros to the right").
type Region struct {
	Cube   []lph.Bounds
	PreKey lph.Key
	PreLen int
}

// Clone deep-copies the region (the cube is mutable during splits).
func (r Region) Clone() Region {
	cp := r
	cp.Cube = append([]lph.Bounds(nil), r.Cube...)
	return cp
}

// Contains reports whether an index point lies inside the region's
// cube (closed on both ends).
func (r Region) Contains(point []float64) bool {
	if len(point) != len(r.Cube) {
		return false
	}
	for i, b := range r.Cube {
		if !b.Contains(point[i]) {
			return false
		}
	}
	return true
}

// Run returns the positions [a, b) of an ascending key column that hold
// the keys under the region's prefix: a key is its point's path down
// the k-d partition, so they are one contiguous run, found by two binary
// searches. CuboidSpan's hi is exclusive and wraps to 0 whenever the
// span ends at the top of the key space; the inclusive last key, hi-1,
// never wraps.
func (r Region) Run(keys []lph.Key) (a, b int) {
	lo, hi := lph.CuboidSpan(r.PreKey, r.PreLen)
	a, _ = slices.BinarySearch(keys, lo)
	b = len(keys)
	if last := hi - 1; last != ^lph.Key(0) {
		b, _ = slices.BinarySearch(keys, last+1)
	}
	return a, b
}

// Validate checks the structural invariants.
func (r Region) Validate(p *lph.Partitioner) error { //lint:allow deadexport the structural oracle the split, refine and restrict tests check every region they produce against
	if len(r.Cube) != p.K() {
		return fmt.Errorf("query: cube has %d dims, partitioner has %d", len(r.Cube), p.K())
	}
	if r.PreLen < 0 || r.PreLen > lph.M {
		return fmt.Errorf("query: prefix length %d out of range", r.PreLen)
	}
	if lph.Prefix(r.PreKey, r.PreLen) != r.PreKey {
		return fmt.Errorf("query: prekey %x has non-zero bits beyond prefix length %d", r.PreKey, r.PreLen)
	}
	cu := p.Cuboid(r.PreKey, r.PreLen)
	for j, b := range r.Cube {
		if b.Hi < b.Lo {
			return fmt.Errorf("query: empty range on dim %d: %+v", j, b)
		}
		if b.Lo < cu[j].Lo-1e-9 || b.Hi > cu[j].Hi+1e-9 {
			return fmt.Errorf("query: cube dim %d %+v escapes cuboid %+v", j, b, cu[j])
		}
	}
	return nil
}

// Around builds the region of a range query: the index-space hypercube
// of half-side r around a mapped query point, clamped to the
// partitioner's boundary. The cube is widened by a relative epsilon: the
// contractive-mapping guarantee |d(x,l_i) - d(q,l_i)| <= d(x,q) holds
// exactly in real arithmetic but can be violated by one ulp in floats,
// and the exact-distance refinement removes any false positives the
// widening admits.
func Around(p *lph.Partitioner, center []float64, r float64) (Region, error) {
	return (*Cubes)(nil).Around(p, center, r)
}

// Around is the package's Around with the region's cube cut from the
// arena.
func (c *Cubes) Around(p *lph.Partitioner, center []float64, r float64) (Region, error) {
	if len(center) != p.K() {
		return Region{}, fmt.Errorf("query: cube has %d dims, want %d", len(center), p.K())
	}
	cube := c.New(len(center))
	for j, x := range center {
		b := p.Bounds(j)
		eps := 1e-9 * (1 + math.Abs(x) + r)
		cube[j] = lph.Bounds{Lo: b.Clamp(x - r - eps), Hi: b.Clamp(x + r + eps)}
	}
	return prefixOf(p, cube)
}

// New builds the initial query region for a cube: it computes the
// prefix of the smallest hypercuboid completely holding the cube by
// descending divisions while the cube stays in one half (figure 1(a)).
// The cube is clamped to the partitioner's boundary first, in a copy.
func New(p *lph.Partitioner, cube []lph.Bounds) (Region, error) {
	if len(cube) != p.K() {
		return Region{}, fmt.Errorf("query: cube has %d dims, want %d", len(cube), p.K())
	}
	return prefixOf(p, append(make([]lph.Bounds, 0, len(cube)), cube...))
}

// prefixOf clamps cube, which has p.K() dimensions, in place and returns
// it as the region New describes.
func prefixOf(p *lph.Partitioner, cube []lph.Bounds) (Region, error) {
	r := Region{Cube: cube}
	for j, b := range cube {
		bounds := p.Bounds(j)
		lo, hi := bounds.Clamp(b.Lo), bounds.Clamp(b.Hi)
		if hi < lo {
			return Region{}, fmt.Errorf("query: empty range on dim %d: %+v", j, b)
		}
		r.Cube[j] = lph.Bounds{Lo: lo, Hi: hi}
	}
	// Descend divisions in place while the cube stays in one half —
	// the allocation-free equivalent of repeated single-region Splits
	// (the cube never changes during the descent, only the prefix).
	for r.PreLen < lph.M {
		pos := r.PreLen + 1
		j := (pos - 1) % p.K()
		mid := p.SplitMid(r.PreKey, pos)
		switch {
		case r.Cube[j].Lo > mid:
			r.PreKey = lph.SetBit(r.PreKey, pos)
			r.PreLen = pos
		case r.Cube[j].Hi < mid:
			r.PreLen = pos
		default:
			return r, nil
		}
	}
	return r, nil
}

// Split is Algorithm 4: divide region q at division number pos
// (which must be q.PreLen+1 ≤ pos ≤ 64 for the prefix walk to be
// meaningful; routing always calls it with pos = PreLen+1, surrogate
// refinement with the first zero bit position). It returns one region
// when the cube lies entirely in one half, or two (upper half first,
// matching the paper's nq₁ with bit pos set) when it straddles the
// midpoint.
func Split(p *lph.Partitioner, q Region, pos int) []Region {
	var dst [2]Region
	if SplitInto(&dst, p, q, pos, nil) == 1 {
		return []Region{dst[0]}
	}
	return []Region{dst[0], dst[1]}
}

// SplitInto is Split into a caller's array: it writes the regions Split
// returns to dst[0] and, when the cube straddles the midpoint, dst[1],
// and returns how many it wrote. The halves of a straddling cube are
// clones cut from cubes; no slice of regions is allocated.
func SplitInto(dst *[2]Region, p *lph.Partitioner, q Region, pos int, cubes *Cubes) int {
	if pos < 1 || pos > lph.M {
		panic(fmt.Sprintf("query: split position %d out of [1,64]", pos))
	}
	j := (pos - 1) % p.K()
	mid := p.SplitMid(q.PreKey, pos)
	switch {
	case q.Cube[j].Lo > mid:
		// The cube is unchanged in the single-half cases, and cubes are
		// only ever mutated at clone birth (straddle case below,
		// Restrict), so the child can share the parent's cube slice.
		dst[0] = q
		dst[0].PreKey = lph.SetBit(q.PreKey, pos)
		dst[0].PreLen = pos
		return 1
	case q.Cube[j].Hi < mid:
		dst[0] = q
		dst[0].PreLen = pos
		return 1
	default:
		upper := cubes.Clone(q)
		upper.Cube[j].Lo = mid
		upper.PreKey = lph.SetBit(upper.PreKey, pos)
		upper.PreLen = pos
		lower := cubes.Clone(q)
		lower.Cube[j].Hi = mid
		lower.PreLen = pos
		dst[0], dst[1] = upper, lower
		return 2
	}
}

// Restrict clips the region's cube to the cuboid identified by
// (prekey, prelen) and retags it. It returns false when the
// intersection is empty. It is the definition Refine is held to: the
// sub-cuboids of a surrogate refinement are, one by one, what Restrict
// yields for them.
func Restrict(p *lph.Partitioner, q Region, prekey lph.Key, prelen int) (Region, bool) {
	cu := p.Cuboid(prekey, prelen)
	nq := q.Clone()
	nq.PreKey = lph.Prefix(prekey, prelen)
	nq.PreLen = prelen
	for j := range nq.Cube {
		if nq.Cube[j].Lo < cu[j].Lo {
			nq.Cube[j].Lo = cu[j].Lo
		}
		if nq.Cube[j].Hi > cu[j].Hi {
			nq.Cube[j].Hi = cu[j].Hi
		}
		if nq.Cube[j].Hi < nq.Cube[j].Lo {
			return Region{}, false
		}
	}
	return nq, true
}

// Refine is the decomposition of Algorithm 5 (SurrogateRefine) at the
// node whose identifier is vid in the index's unrotated key space. The
// keys of q's cuboid above vid belong to other nodes, and they are
// exactly the union, over every zero bit z of vid past q's prefix, of
// the sibling cuboid (vid's first z-1 bits, then a one). Refine calls
// emit, in ascending z, with q restricted to each sibling its cube
// touches, its cube cut from cubes — region for region what
//
//	Restrict(p, q, SetBit(Prefix(vid, z-1), z), z)
//
// yields for those z, floats bit-identical — and does nothing when vid
// lies outside q's cuboid (no key of the cuboid is above the node: it
// covers all of it). q's cube must have p.K() dimensions.
//
// It is one walk down vid's bits instead of a walk from the root per
// zero bit. cu is the cuboid of vid's path, narrowed one dimension a
// level by the (Lo+Hi)/2 sequence Cuboid performs; a sibling differs
// from it in that level's dimension only, so clip — the cube cut to cu,
// kept per dimension — is the sibling's restriction everywhere else, and
// a cube is taken only for a sibling that survives. Intervals are
// closed and a deeper cuboid lies inside a shallower one in every
// dimension, so once clip is empty in any dimension every deeper
// sibling's restriction is empty too and the walk stops: a path that
// leaves the cube, as most do within a few levels, costs those levels.
func Refine(p *lph.Partitioner, q Region, vid lph.Key, cubes *Cubes, emit func(Region)) {
	if !lph.SamePrefix(q.PreKey, vid, q.PreLen) {
		return
	}
	k := p.K()
	var local [32]lph.Bounds
	scratch := local[:]
	if 2*k > len(local) {
		scratch = make([]lph.Bounds, 2*k)
	}
	cu, clip := scratch[:k], scratch[k:2*k]
	for j := range cu {
		cu[j] = p.Bounds(j)
	}
	j := 0
	for i := 1; i <= q.PreLen; i++ {
		mid := cu[j].Mid()
		if lph.GetBit(vid, i) == 1 {
			cu[j].Lo = mid
		} else {
			cu[j].Hi = mid
		}
		if j++; j == k {
			j = 0
		}
	}
	for d := range clip {
		var ok bool
		if clip[d], ok = clipTo(q.Cube[d], cu[d]); !ok {
			return
		}
	}
	for z := q.PreLen + 1; z <= lph.M; z++ {
		mid := cu[j].Mid()
		if lph.GetBit(vid, z) == 1 {
			cu[j].Lo = mid
		} else {
			if b, ok := clipTo(q.Cube[j], lph.Bounds{Lo: mid, Hi: cu[j].Hi}); ok {
				cube := cubes.New(k)
				copy(cube, clip)
				cube[j] = b
				emit(Region{Cube: cube, PreKey: lph.SetBit(lph.Prefix(vid, z-1), z), PreLen: z})
			}
			cu[j].Hi = mid
		}
		var ok bool
		if clip[j], ok = clipTo(q.Cube[j], cu[j]); !ok {
			return
		}
		if j++; j == k {
			j = 0
		}
	}
}

// clipTo is Restrict's per-dimension step, comparison for comparison: b
// cut to the cuboid side cu, and whether anything is left.
func clipTo(b, cu lph.Bounds) (lph.Bounds, bool) {
	if b.Lo < cu.Lo {
		b.Lo = cu.Lo
	}
	if b.Hi > cu.Hi {
		b.Hi = cu.Hi
	}
	if b.Hi < b.Lo {
		return b, false
	}
	return b, true
}
