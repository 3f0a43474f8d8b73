//go:build !amd64

package query

// hasAVX512 is false off amd64: Mask always takes the portable path.
func hasAVX512() bool { return false }

func boxMaskAVX512(pts *float64, n, k int, lo, hi *[vecDims]float64) uint64 {
	panic("query: no AVX-512 kernel on this architecture")
}
