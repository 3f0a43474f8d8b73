package query

import (
	"slices"

	"landmarkdht/internal/lph"
)

// Descend finds, in an ascending key column, the entries whose index
// points can lie inside r's cube, without looking at a single point. A
// key is its point's root-to-leaf path through the k-d bisection
// (lph.Hash), so the sorted column is that tree laid flat: the entries
// under a prefix are one contiguous run, and the run's two children at
// division pos are the halves either side of SetBit(prekey, pos), found
// by binary search. Descend walks the run of r's prefix that way,
// skipping each half the cube cannot reach, and calls visit(a, b) with
// the surviving leaf runs keys[a:b] — at most leaf entries each, or the
// entries of one full 64-bit key. The caller tests those entries'
// points against the cube (Region.Contains); everything outside the
// visited runs is guaranteed not to be contained.
//
// The prune rule is Split's: Cube.Lo > mid reaches the upper half only,
// Cube.Hi < mid the lower half only. It is exact against Hash's tie
// rule — Hash sends x > mid up and everything else, x == mid included,
// down, and clamps to the bounds first; a point in the lower half has
// x ≤ mid (clamping can only have raised it), so Lo > mid excludes it,
// and a point in the upper half has x > mid (clamping can only have
// lowered it), so Hi < mid excludes it. The midpoints come from the
// same (Lo+Hi)/2 narrowing Hash performs, so they are bit-identical.
//
// Truncating keys from the back restricts the walk: Algorithm 5's local
// share at a surrogate with virtual id vid is the keys ≤ vid of the
// prefix, which is Descend over keys[:first index above vid]. Visited
// runs are disjoint, ascending and inside the prefix's run, and nothing
// is allocated per step.
func Descend(p *lph.Partitioner, r Region, keys []lph.Key, leaf int, visit func(a, b int)) {
	// CuboidSpan is half-open and its hi wraps to 0 whenever the span
	// ends at the top of the key space (always at PreLen 0); the
	// inclusive last key, hi-1, never wraps.
	lo, hi := lph.CuboidSpan(r.PreKey, r.PreLen)
	a, _ := slices.BinarySearch(keys, lo)
	b := len(keys)
	if last := hi - 1; last != ^lph.Key(0) {
		b, _ = slices.BinarySearch(keys, last+1)
	}
	d := descent{k: p.K(), cube: r.Cube, cu: p.Cuboid(r.PreKey, r.PreLen), keys: keys, leaf: leaf, visit: visit}
	d.walk(r.PreKey, r.PreLen, a, b)
}

// descent is the state one Descend call shares across its recursion:
// cu is the cuboid of the node being walked, narrowed and restored one
// dimension per level.
type descent struct {
	k     int
	cube  []lph.Bounds
	cu    []lph.Bounds
	keys  []lph.Key
	leaf  int
	visit func(a, b int)
}

func (d *descent) walk(prekey lph.Key, prelen, a, b int) {
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
