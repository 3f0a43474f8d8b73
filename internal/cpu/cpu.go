// Package cpu says once, at init, whether this process runs the
// module's AVX-512 kernels — query.Box.Mask's and query.Box32.Mask's
// cube tests and metric.L2Rows' exact distances — and holds the one
// switch they read.
// There is no option, flag, environment variable or build tag: where
// the CPU lacks the instructions, or the OS does not save their
// registers, every kernel takes its portable Go loop.
package cpu

// avx512 says whether the vector kernels run.
var avx512 = hasAVX512()

// AVX512 reports whether the vector kernels run: whether the CPU has
// AVX-512 Foundation and the OS saves its registers.
func AVX512() bool { return avx512 }

// setVector turns every vector kernel on, where the CPU has them, or
// off, and returns whether they were on, so that a test runs the
// portable loops on any CPU. netrt's TestPortableKernels, core's
// TestPortableScan and the root package's
// TestEuclideanBatchRefinePortable reach it through go:linkname to run
// answers and scans with the kernels off: renaming it breaks those
// tests' link.
func setVector(on bool) (was bool) { //lint:allow deadexport the root package's, core's and netrt's tests reach it through go:linkname to run the portable loops
	was, avx512 = avx512, on && hasAVX512()
	return was
}
