package query

// boxMaskAVX512 is Box.Mask's kernel for 1 ≤ n ≤ 64 rows of 1 ≤ k ≤ 16
// coordinates starting at pts: bit i of the result is set when row i
// lies in the closed cube whose bounds are lo[:k] and hi[:k].
//
//go:noescape
func boxMaskAVX512(pts *float64, n, k int, lo, hi *[vecDims]float64) uint64

// box32MaskAVX512 is Box32.Mask's kernel for 1 ≤ n ≤ 64 rows of
// 1 ≤ k ≤ 16 float32 coordinates starting at pts: bit i of outer is set
// when row i lies in the closed cube bounds[0:k], bounds[k:2k], bit i of
// inner when it lies in bounds[2k:3k], bounds[3k:4k].
//
//go:noescape
func box32MaskAVX512(pts *float32, n, k int, bounds *float32) (outer, inner uint64)
