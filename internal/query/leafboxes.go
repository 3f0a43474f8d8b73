package query

import (
	"math"
	"math/bits"
	"slices"

	"landmarkdht/internal/lph"
)

// LeafBoxes is a flat index of boxes over a row-major point column: every
// rows consecutive rows from row 0 (a leaf; the last may be short) lie
// under one axis-aligned box, its k minima a row of bmin and its k
// maxima a row of bmax. A box bounds the coordinates that are not NaN —
// a row with a NaN is in no cube — so a leaf whose column is all NaN has
// the empty box (+Inf, −Inf) there. Whatever order the rows are in, a
// box bounds its own rows; an order in which neighbours are near in the
// index space, such as ring-key order (a key is its point's path down
// the k-d partition), makes the boxes tight.
//
// The index does not keep the column: Walk reads the boxes alone, and
// the caller tests the rows of the runs it yields.
type LeafBoxes struct {
	n, k, rows int
	bmin, bmax []float64
}

// Reset shapes the index for n rows of k coordinates each in leaves of
// rows rows (rows ≥ 1), in the buffers it already has, and returns the
// number of leaves. Their boxes are unset until Fill computes them.
func (x *LeafBoxes) Reset(n, k, rows int) int {
	x.n, x.k, x.rows = n, k, rows
	leaves := (n + rows - 1) / rows
	x.bmin = slices.Grow(x.bmin[:0], leaves*k)[:leaves*k]
	x.bmax = slices.Grow(x.bmax[:0], leaves*k)[:leaves*k]
	return leaves
}

// Fill computes the boxes of leaves [lo, hi) from pts, the column Reset
// shaped the index for. Fills of disjoint ranges may run concurrently.
func (x *LeafBoxes) Fill(pts []float64, lo, hi int) { fill(x, pts, lo, hi) }

// Fill32 is Fill over a float32 column: each box holds its rows' float32
// minima and maxima, exactly, so a cube that contains a row's float32
// coordinates meets its box (Box32.Outer is such a cube).
func (x *LeafBoxes) Fill32(pts []float32, lo, hi int) { fill(x, pts, lo, hi) }

func fill[E float32 | float64](x *LeafBoxes, pts []E, lo, hi int) {
	k := x.k
	for l := lo; l < hi; l++ {
		leaf := pts[l*x.rows*k : min((l+1)*x.rows, x.n)*k]
		// A dimension at a time, both bounds in registers and taken by
		// the min and max instructions, not by a branch on each
		// comparison: on random rows that halves the time of a fill.
		for j := range k {
			bmin, bmax := E(math.Inf(1)), E(math.Inf(-1))
			for i := j; i < len(leaf); i += k {
				if v := leaf[i]; v == v { // a NaN moves neither bound
					bmin, bmax = min(bmin, v), max(bmax, v)
				}
			}
			x.bmin[l*k+j], x.bmax[l*k+j] = float64(bmin), float64(bmax)
		}
	}
}

// Walk calls visit(lo, hi) for each run of rows [lo, hi) inside [a, b)
// whose leaves' boxes meet cube, which has the column's k dimensions:
// disjoint and in ascending order, consecutive passing leaves in one
// run (up to 64 of them), so rows outside every run are guaranteed not
// to be contained. A leaf that [a, b) cuts is tested whole and yields
// only its rows inside [a, b).
//
// The boxes are tested by Box.Mask, 64 leaves a call: a box meets the
// cube when its maxima lie in the cube opened upward, [Lo, +Inf], and
// its minima in the cube opened downward, [−Inf, Hi]. A NaN bound passes
// no box, and contains no row either; an inverted one may pass a box
// whose rows it then does not contain. Nothing is allocated for up to
// 16 dimensions.
func (x *LeafBoxes) Walk(cube []lph.Bounds, a, b int, visit func(lo, hi int)) {
	k := x.k
	if a >= b || len(cube) != k {
		return
	}
	var room [2 * vecDims]lph.Bounds
	open := room[:]
	if 2*k > len(room) {
		open = make([]lph.Bounds, 2*k)
	}
	for j, c := range cube {
		open[j] = lph.Bounds{Lo: c.Lo, Hi: math.Inf(1)}
		open[k+j] = lph.Bounds{Lo: math.Inf(-1), Hi: c.Hi}
	}
	up, down := boxOf(open[:k]), boxOf(open[k:2*k])
	rows := x.rows
	for l, end := a/rows, (b-1)/rows+1; l < end; l += 64 {
		n := min(end-l, 64)
		for m := up.Mask(x.bmax[l*k:], n) & down.Mask(x.bmin[l*k:], n); m != 0; {
			first := bits.TrailingZeros64(m)
			run := bits.TrailingZeros64(^(m >> first))
			m &^= (uint64(1)<<run - 1) << first
			visit(max((l+first)*rows, a), min((l+first+run)*rows, b))
		}
	}
}
