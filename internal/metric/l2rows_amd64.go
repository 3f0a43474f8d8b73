package metric

// l2RowsAVX512 is L2Rows' kernel for 1 ≤ n ≤ 64 positions and dim ≥ 1:
// dist[i] = L2(q, row pos[i]) for i < n, where row p is the dim floats
// at rows + p·dim, and bit i of the result is set when dist[i] <= r.
// Every position must name a row of the slab.
//
//go:noescape
func l2RowsAVX512(dist, q *float64, dim int, rows *float64, pos *int32, n int, r float64) uint64
