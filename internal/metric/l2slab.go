package metric

import (
	"fmt"
	"reflect"
)

// L2Slab is a Euclidean dataset laid out for L2Rows: the vectors copied,
// in id order, into one slab of dim coordinates each, so that the exact
// distances from a query to a batch of objects are one L2Rows call over
// the objects' ids instead of one call through Space.Dist, and one load
// of a separately allocated vector, per object.
type L2Slab struct {
	dim  int
	rows []float64
}

// NewL2Slab copies objs into a slab when s's distance is L2 itself and
// every object is a Vector of one length, at least 1. Otherwise it
// returns nil and exact distances keep going through s.Dist: any other
// metric, including L1 and a closure that wraps L2 — metric.Bound's
// among them — whose answers L2Rows does not compute.
//
// Whether s.Dist is L2 is read from the function's code pointer, which
// names a top-level function uniquely; a closure, however it is built,
// has code of its own.
func NewL2Slab[T any](s Space[T], objs []T) *L2Slab {
	vecs, ok := any(objs).([]Vector)
	if !ok || len(vecs) == 0 || s.Dist == nil ||
		reflect.ValueOf(s.Dist).Pointer() != reflect.ValueOf(L2).Pointer() {
		return nil
	}
	dim := len(vecs[0])
	if dim == 0 {
		return nil
	}
	b := &L2Slab{dim: dim, rows: make([]float64, 0, dim*len(vecs))}
	for _, v := range vecs {
		if len(v) != dim {
			return nil
		}
		b.rows = append(b.rows, v...)
	}
	return b
}

// Refine writes to dist[i] the distance from payload, a Vector, to the
// object with id ids[i], for each of up to 64 ids, bit for bit what L2
// returns, and returns a mask whose bit i is set when dist[i] <= r: the
// shape of core.Index.Refine. A query whose length is not the slab's
// goes through L2 one object at a time, which panics on it as L2 always
// has.
func (b *L2Slab) Refine(payload any, ids []int32, r float64, dist []float64) uint64 {
	q := payload.(Vector)
	if len(q) == b.dim {
		return L2Rows(dist, q, b.rows, ids, r)
	}
	var hits uint64
	for i, id := range ids {
		if dist[i] = L2(q, b.rows[int(id)*b.dim:][:b.dim]); dist[i] <= r {
			hits |= 1 << i
		}
	}
	return hits
}

// Append adds v as the object with the next id, Len.
func (b *L2Slab) Append(v Vector) {
	if len(v) != b.dim {
		panic(fmt.Sprintf("metric: a vector of %d coordinates for a slab of %d", len(v), b.dim))
	}
	b.rows = append(b.rows, v...)
}

// Truncate keeps the objects with ids below n and drops the rest.
func (b *L2Slab) Truncate(n int) { b.rows = b.rows[:n*b.dim] }

// Len returns the number of objects in the slab.
func (b *L2Slab) Len() int { return len(b.rows) / b.dim } //lint:allow deadexport the root package's batch-refine tests hold the slab's size to the index's
