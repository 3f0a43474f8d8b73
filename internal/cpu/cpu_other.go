//go:build !amd64

package cpu

// hasAVX512 is false off amd64: every kernel takes its portable loop.
func hasAVX512() bool { return false }
