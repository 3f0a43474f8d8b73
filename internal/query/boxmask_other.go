//go:build !amd64

package query

func boxMaskAVX512(pts *float64, n, k int, lo, hi *[vecDims]float64) uint64 {
	panic("query: no AVX-512 kernel on this architecture")
}
