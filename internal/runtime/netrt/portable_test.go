package netrt

import (
	"testing"
	_ "unsafe" // for go:linkname

	"landmarkdht/internal/cpu"
)

// setVector is the one switch between the AVX-512 kernels — query's
// cube test and metric's batch of exact distances — and their portable
// loops: it turns the kernels on (where the CPU has them) or off and
// returns whether they were on. The tests below turn them off, so that
// a machine with AVX-512 runs the answers of a real node through the
// loops the kernels fall back to elsewhere. It is a function, not the
// variable behind it, so that a rename on cpu's side fails the link
// instead of leaving this test a switch of its own.
//
//go:linkname setVector landmarkdht/internal/cpu.setVector
func setVector(on bool) (was bool)

// portable runs fn with both kernels forced onto their portable loops.
func portable(t *testing.T, fn func(t *testing.T)) {
	was := setVector(false)
	defer setVector(was)
	if cpu.AVX512() {
		t.Fatal("the vector kernels are still on after they were turned off")
	}
	fn(t)
}

// The pinned work of the local fixture, its answers to the bit, and the
// exactness of a ring's answers, with every leaf run tested and every
// batch of distances computed by the portable loops.
func TestPortableKernels(t *testing.T) {
	t.Run("LocalQueryWorkPinned", func(t *testing.T) { portable(t, TestLocalQueryWorkPinned) })
	t.Run("AnswerMatchesL2", func(t *testing.T) { portable(t, TestAnswerMatchesL2) })
	t.Run("GroupedExactness", func(t *testing.T) {
		portable(t, func(t *testing.T) {
			groupedExactness(t, 3, DataConfig{Metric: "euclid", Seed: 43, Objects: 600, Dim: 3, Landmarks: 4})
		})
	})
}
