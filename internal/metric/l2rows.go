package metric

import (
	"fmt"
	"math"

	"landmarkdht/internal/cpu"
)

// L2Rows is L2 from q to a batch of the vectors in a slab: rows holds
// vectors of len(q) coordinates each, one after another, and for every
// i < len(pos) it writes to dist[i] the distance from q to the vector at
// index pos[i], bit for bit what L2(q, that vector) returns, and sets
// bit i of the result when dist[i] <= r (an ordered compare: a NaN
// distance or radius is no hit). pos holds at most 64 indexes, in any
// order and with repeats, and dist room for as many; only the vectors
// pos names are read.
//
// On amd64 CPUs with AVX-512 (cpu.AVX512) the batch goes to
// l2RowsAVX512, eight vectors to a block, each in a lane of its own that
// adds the rounded squares of its coordinates in L2's order, so no
// addition is reordered; everywhere else to l2Rows, L2's loop over the
// slab.
func L2Rows(dist []float64, q Vector, rows []float64, pos []int32, r float64) uint64 {
	if len(pos) > 64 {
		panic(fmt.Sprintf("metric: an L2 batch of %d rows", len(pos)))
	}
	dist = dist[:len(pos)]
	dim := len(q)
	if dim == 0 || len(pos) == 0 {
		return l2Rows(dist, q, rows, pos, r)
	}
	n := len(rows) / dim
	for _, p := range pos {
		if p < 0 || int(p) >= n {
			panic(fmt.Sprintf("metric: row %d of a slab of %d", p, n))
		}
	}
	if cpu.AVX512() {
		return l2RowsAVX512(&dist[0], &q[0], dim, &rows[0], &pos[0], len(pos), r)
	}
	return l2Rows(dist, q, rows, pos, r)
}

// l2Rows is L2Rows without the vector kernel: L2's loop over the slab,
// one vector after another, with no call per vector.
func l2Rows(dist []float64, q Vector, rows []float64, pos []int32, r float64) uint64 {
	dim := len(q)
	dist = dist[:len(pos)]
	var hits uint64
	for i, p := range pos {
		x := rows[int(p)*dim:][:dim]
		var sum float64
		for j, qj := range q {
			d := qj - x[j]
			sum += float64(d * d)
		}
		if dist[i] = math.Sqrt(sum); dist[i] <= r {
			hits |= 1 << i
		}
	}
	return hits
}
