package query

import (
	"fmt"
	"math"
	"slices"

	"landmarkdht/internal/lph"
)

// SplitIndex is the k-d bisection of an ascending key column, computed
// once. A key is its point's root-to-leaf path through the k-d bisection
// (lph.Hash), so the sorted column is that tree laid flat: the entries
// under a prefix are one contiguous run, and the run's two children at
// division pos are the parts either side of SetBit(prekey, pos). For
// every run it bisects — more than leaf entries under a prefix shorter
// than 64 bits — the index holds the position where the upper child
// starts, which is what a binary search of the run for SetBit(prekey,
// pos) returns, and the nodes of both children. A run of at most leaf
// entries, or of one full 64-bit key, is a leaf and has no node.
//
// The column must not change after NewSplitIndex; the index keeps it,
// not a copy.
type SplitIndex struct {
	keys  []lph.Key
	leaf  int
	nodes []split // preorder; the root, if the column is bisected at all, is nodes[0]
}

// split is one bisected run: its upper child starts at sorted position
// m, and kid holds the nodes of its lower and upper children, noSplit
// for a child that is a leaf.
type split struct {
	m   int32
	kid [2]int32
}

const noSplit = -1

// NewSplitIndex bisects keys, which must be ascending, down to runs of
// at most leaf entries (leaf ≥ 1) or of one full key.
func NewSplitIndex(keys []lph.Key, leaf int) *SplitIndex {
	if leaf < 1 || len(keys) > math.MaxInt32 {
		panic(fmt.Sprintf("query: a split index of %d keys with leaf %d", len(keys), leaf))
	}
	x := &SplitIndex{keys: keys, leaf: leaf}
	x.build(0, 0, 0, len(keys))
	return x
}

// build adds the node of the run keys[a:b] under (prekey, prelen), and
// those below it, and returns the node's index — noSplit for a leaf.
func (x *SplitIndex) build(prekey lph.Key, prelen, a, b int) int32 {
	if b-a <= x.leaf || prelen == lph.M {
		return noSplit
	}
	i := len(x.nodes)
	x.nodes = append(x.nodes, split{})
	pos := prelen + 1
	upper := lph.SetBit(prekey, pos)
	m, _ := slices.BinarySearch(x.keys[a:b], upper)
	m += a
	lo := x.build(prekey, pos, a, m)
	hi := x.build(upper, pos, m, b)
	x.nodes[i] = split{m: int32(m), kid: [2]int32{lo, hi}}
	return int32(i)
}

// Nodes returns how many runs the index bisects.
func (x *SplitIndex) Nodes() int { return len(x.nodes) }

// Descend finds, among the first cut entries of the column, those whose
// index points can lie inside r's cube, without looking at a single
// point. It reaches the run of r's prefix by following PreKey's bits
// from the root — binary-searching only inside a leaf run, where the
// prefix lies as deep as the index or deeper — then walks the run,
// skipping each child the cube cannot reach, and calls visit(a, b) with
// the surviving leaf runs keys[a:b]: at most leaf entries each, or the
// entries of one full 64-bit key. The caller tests
// those entries' points against the cube (Region.Contains); everything
// outside the visited runs is guaranteed not to be contained.
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
// The cut restricts the walk to keys[:cut]: Algorithm 5's local share
// at a surrogate with virtual id vid is the keys ≤ vid of the prefix,
// which is Descend with cut the first position above vid. A bisected
// run [a, b) becomes [a, min(b, cut)) and its split min(m, cut), which
// is what a binary search of the truncated column finds, so the runs
// visited are those a search of every node would visit, in the same
// order. They are disjoint, ascending and inside the prefix's run, and
// nothing is allocated (for up to 16 dimensions).
func (x *SplitIndex) Descend(p *lph.Partitioner, r Region, cut int, visit func(a, b int)) {
	var room [16]lph.Bounds
	cu := p.CuboidTo(room[:0], r.PreKey, r.PreLen)
	// Follow the prefix's bits from the root, narrowing its run as far
	// as the index goes.
	node, a, b := int32(noSplit), 0, len(x.keys)
	if len(x.nodes) > 0 {
		node = 0
	}
	for i := 1; i <= r.PreLen && node != noSplit; i++ {
		up := lph.GetBit(r.PreKey, i)
		s := &x.nodes[node]
		if up == 1 {
			a = int(s.m)
		} else {
			b = int(s.m)
		}
		node = s.kid[up]
	}
	if node == noSplit {
		// [a, b) is a leaf run holding the prefix's, or equal to it.
		// CuboidSpan is half-open and its hi wraps to 0 whenever the
		// span ends at the top of the key space; the inclusive last
		// key, hi-1, never wraps.
		lo, hi := lph.CuboidSpan(r.PreKey, r.PreLen)
		run := x.keys[a:b]
		i, _ := slices.BinarySearch(run, lo)
		j := len(run)
		if last := hi - 1; last != ^lph.Key(0) {
			j, _ = slices.BinarySearch(run, last+1)
		}
		a, b = a+i, a+j
	}
	d := descent{k: p.K(), cube: r.Cube, cu: cu, nodes: x.nodes, leaf: x.leaf, cut: cut, visit: visit}
	d.walk(node, r.PreLen, a, b)
}

// descent is the state one Descend call shares across its recursion:
// cu is the cuboid of the node being walked, narrowed and restored one
// dimension per level.
type descent struct {
	k     int
	cube  []lph.Bounds
	cu    []lph.Bounds
	nodes []split
	leaf  int
	cut   int
	visit func(a, b int)
}

// walk visits the run [a, b) under the prefix of length prelen, whose
// node is node, truncated at d.cut.
func (d *descent) walk(node int32, prelen, a, b int) {
	b = min(b, d.cut)
	if a >= b {
		return
	}
	if node == noSplit || b-a <= d.leaf {
		d.visit(a, b)
		return
	}
	s := d.nodes[node]
	j := prelen % d.k
	was := d.cu[j]
	mid := was.Mid()
	if d.cube[j].Lo <= mid {
		d.cu[j].Hi = mid
		d.walk(s.kid[0], prelen+1, a, int(s.m))
		d.cu[j] = was
	}
	if d.cube[j].Hi >= mid {
		d.cu[j].Lo = mid
		d.walk(s.kid[1], prelen+1, int(s.m), b)
		d.cu[j] = was
	}
}
