//go:build !amd64

package metric

func l2RowsAVX512(dist, q *float64, dim int, rows *float64, pos *int32, n int, r float64) uint64 {
	panic("metric: no AVX-512 kernel on this architecture")
}
