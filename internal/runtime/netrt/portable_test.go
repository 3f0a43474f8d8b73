package netrt

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// setVector is query's switch between its AVX-512 cube test and the
// portable loop: it turns the kernel on (where the CPU has it) or off
// and returns whether it was on. The tests below turn it off, so that a
// machine with AVX-512 runs the answers of a real node through the loop
// the kernel falls back to elsewhere. It is a function, not the
// variable behind it, so that a rename on query's side fails the link
// instead of leaving this test a switch of its own.
//
//go:linkname setVector landmarkdht/internal/query.setVector
func setVector(on bool) (was bool)

// portable runs fn with query's cube test forced onto the portable loop.
func portable(t *testing.T, fn func(t *testing.T)) {
	was := setVector(false)
	defer setVector(was)
	if setVector(false) {
		t.Fatal("query's vector kernel is still on after it was turned off")
	}
	fn(t)
}

// The pinned work of the local fixture and the exactness of a ring's
// answers, with every leaf run tested by the portable loop.
func TestPortableCubeTest(t *testing.T) {
	t.Run("LocalQueryWorkPinned", func(t *testing.T) { portable(t, TestLocalQueryWorkPinned) })
	t.Run("GroupedExactness", func(t *testing.T) {
		portable(t, func(t *testing.T) {
			groupedExactness(t, 3, DataConfig{Metric: "euclid", Seed: 43, Objects: 600, Dim: 3, Landmarks: 4})
		})
	})
}
