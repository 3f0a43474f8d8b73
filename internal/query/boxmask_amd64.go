package query

// boxMaskAVX512 is Box.Mask's kernel for 1 ≤ n ≤ 64 rows of 1 ≤ k ≤ 16
// coordinates starting at pts: bit i of the result is set when row i
// lies in the closed cube whose bounds are lo[:k] and hi[:k].
//
//go:noescape
func boxMaskAVX512(pts *float64, n, k int, lo, hi *[vecDims]float64) uint64
