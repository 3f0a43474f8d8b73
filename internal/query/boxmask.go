package query

import (
	"fmt"

	"landmarkdht/internal/cpu"
	"landmarkdht/internal/lph"
)

// vecDims is the most dimensions a cube may have for the vector kernel:
// a row of up to 16 coordinates is two 8-lane registers.
const vecDims = 16

// Box is a cube laid out for Mask: the cube itself, and for up to
// vecDims dimensions its lower and its upper bounds side by side, the
// shape the vector kernel loads them in. Set it once per cube and test
// any number of row blocks against it.
type Box struct {
	cube   []lph.Bounds
	lo, hi [vecDims]float64
}

// Set lays out cube. The box keeps cube, not a copy: it must not change
// while the box is in use.
func (b *Box) Set(cube []lph.Bounds) { *b = boxOf(cube) }

// boxOf is Set by value: a cube stored through a pointer escapes to the
// heap, one stored in a local Box does not.
func boxOf(cube []lph.Bounds) Box {
	b := Box{cube: cube}
	if len(cube) <= vecDims {
		for j, c := range cube {
			b.lo[j], b.hi[j] = c.Lo, c.Hi
		}
	}
	return b
}

// Mask tests the first n rows of pts, row-major with as many coordinates
// per row as the cube has dimensions, against the closed cube, and
// returns a mask whose bit i is set when row i lies inside it. n is at
// most 64, and pts must hold the n rows; nothing past them is read.
//
// A row's bit is Region.Contains' answer for that row: every coordinate
// x satisfies x >= Lo and x <= Hi, ordered comparisons, so a NaN
// coordinate or bound is outside and an inverted side contains nothing.
// On amd64 CPUs with AVX-512 (cpu.AVX512, read once at init) a cube of
// up to vecDims dimensions is tested by boxMaskAVX512, a row per masked
// load and two masked compares with no branch per coordinate; everywhere
// else by maskRows, a row at a time up to its first coordinate outside.
func (b *Box) Mask(pts []float64, n int) uint64 {
	if n > 64 {
		panic(fmt.Sprintf("query: a box mask of %d rows", n))
	}
	k := len(b.cube)
	pts = pts[:n*k] // the n rows, which is all either path reads
	if cpu.AVX512() && len(pts) > 0 && k <= vecDims {
		return boxMaskAVX512(&pts[0], n, k, &b.lo, &b.hi)
	}
	return b.maskRows(pts, n)
}

// maskRows is Mask without the vector kernel: the only path where the
// CPU has no AVX-512 or the cube more than vecDims dimensions. It is
// Region.Contains over the flat rows, without a slice header and a
// length check per row, which cost BenchmarkLocalQuery 14 % when each
// leaf entry was tested through Contains.
//
// It stays out of line for the layout alone: inlined into Mask, it
// moves every function linked after it by 160 bytes, the bench
// harness's calibration kernel among them, whose speed depends on its
// offset in a 64-byte line (EXPERIMENTS, "One cube-mask kernel").
//
//go:noinline
func (b *Box) maskRows(pts []float64, n int) uint64 {
	cube, k := b.cube, len(b.cube)
	var m uint64
next:
	for i := range n {
		p := pts[i*k : (i+1)*k]
		for j, c := range cube {
			if x := p[j]; !(x >= c.Lo && x <= c.Hi) {
				continue next
			}
		}
		m |= 1 << i
	}
	return m
}
