package query

import (
	"fmt"
	"math"
	"slices"

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

// Box32 is a cube laid out for rows stored as float32, each coordinate
// the round-to-nearest rn of the float64 one the cube is about: netrt's
// boot columns, which stream half the bytes of float64 rows. No float32
// cube tests those rows exactly, so a Box32 holds two, and Mask answers
// for both at once:
//
//   - the outer cube, each Lo rounded down and each Hi rounded up to
//     float32. rn is monotone and leaves a float32 where it is, so
//     x ≥ Lo ⇒ rn(x) ≥ rn(down(Lo)) = down(Lo): every row whose float64
//     point the cube contains is inside the outer cube;
//   - the inner cube, each side one float32 step inside the bound
//     rounded inward. rn(x) > up(Lo) ⇒ x > up(Lo) ≥ Lo, so every row
//     inside the inner cube has its float64 point inside the cube.
//
// A row in the outer cube and not in the inner one — the band, rows
// within a float32 rounding of a bound — is undecided, and the caller
// tests its float64 point with Region.Contains. A NaN bound leaves both
// cubes empty on its side; a NaN coordinate is in neither; the inner
// cube lies inside the outer one.
//
// A Box32 keeps its bounds in buffers of its own, grown to the largest
// cube it has been set to, so setting it again allocates nothing.
type Box32 struct {
	k      int
	bounds []float32    // outer Lo, outer Hi, inner Lo, inner Hi: k of each
	outer  []lph.Bounds // the outer cube, each bound widened back exactly
}

// Set lays out cube; the box keeps no reference to it.
func (b *Box32) Set(cube []lph.Bounds) {
	k := len(cube)
	b.k = k
	b.bounds = slices.Grow(b.bounds[:0], 4*k)[:4*k]
	b.outer = slices.Grow(b.outer[:0], k)[:k]
	for j, c := range cube {
		lo, hi := down32(c.Lo), up32(c.Hi)
		b.bounds[j], b.bounds[k+j] = lo, hi
		b.bounds[2*k+j], b.bounds[3*k+j] = innerLo32(c.Lo), innerHi32(c.Hi)
		b.outer[j] = lph.Bounds{Lo: float64(lo), Hi: float64(hi)}
	}
}

// Outer returns the outer cube in float64: the cube LeafBoxes.Walk
// reads to find the leaves of float32 rows that may hold an answer.
func (b *Box32) Outer() []lph.Bounds { return b.outer[:b.k] }

// Mask tests the first n rows of pts, row-major with as many
// coordinates per row as the cube has dimensions, against the outer and
// the inner cube, and returns a mask for each: bit i is set when row i
// lies inside. n is at most 64, and pts must hold the n rows; nothing
// past them is read. On amd64 CPUs with AVX-512 a cube of up to vecDims
// dimensions is tested by box32MaskAVX512, a row per masked load — 16
// float32 lanes hold the whole row — and four masked compares;
// everywhere else by maskRows. Both set the same bits.
func (b *Box32) Mask(pts []float32, n int) (outer, inner uint64) {
	if n > 64 {
		panic(fmt.Sprintf("query: a box mask of %d rows", n))
	}
	k := b.k
	pts = pts[:n*k]
	if cpu.AVX512() && len(pts) > 0 && k <= vecDims {
		return box32MaskAVX512(&pts[0], n, k, &b.bounds[0])
	}
	return b.maskRows(pts, n)
}

// maskRows is Mask without the vector kernel: a row at a time, the outer
// cube up to the row's first coordinate outside it, then the inner cube
// only for a row inside the outer one, which holds it.
//
//go:noinline
func (b *Box32) maskRows(pts []float32, n int) (outer, inner uint64) {
	k := b.k
	olo, ohi := b.bounds[:k], b.bounds[k:2*k]
	ilo, ihi := b.bounds[2*k:3*k], b.bounds[3*k:4*k]
next:
	for i := range n {
		p := pts[i*k : (i+1)*k]
		for j, x := range p {
			if !(x >= olo[j] && x <= ohi[j]) {
				continue next
			}
		}
		outer |= 1 << i
		for j, x := range p {
			if !(x >= ilo[j] && x <= ihi[j]) {
				continue next
			}
		}
		inner |= 1 << i
	}
	return outer, inner
}

// down32 is the greatest float32 at or below x, up32 the least at or
// above it; a NaN stays NaN.
func down32(x float64) float32 {
	f := float32(x)
	if float64(f) > x {
		f = step32(f, false)
	}
	return f
}

func up32(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = step32(f, true)
	}
	return f
}

// innerLo32 is the least float32 lo' such that rn(x) ≥ lo' ⇒ x ≥ lo:
// one step above up32(lo). A lo of −Inf bounds nothing and stays; where
// up32(lo) is +Inf no float32 is safe, since rn takes values short of lo
// to +Inf, and the side is NaN, as it is for a NaN lo. innerHi32 is its
// mirror image.
func innerLo32(lo float64) float32 {
	if math.IsInf(lo, -1) {
		return float32(lo)
	}
	if u := up32(lo); u < float32(math.Inf(1)) {
		return step32(u, true)
	}
	return float32(math.NaN())
}

func innerHi32(hi float64) float32 {
	if math.IsInf(hi, 1) {
		return float32(hi)
	}
	if d := down32(hi); d > float32(math.Inf(-1)) {
		return step32(d, false)
	}
	return float32(math.NaN())
}

// step32 is the float32 next to f toward +Inf when up, toward −Inf
// otherwise: math.Nextafter32 for an f that is neither NaN nor the
// infinity it steps toward. It is written out here rather than called
// so that math links nothing more: a function added there moves every
// kernel linked after it, metric.l2RowsAVX512's among them, whose speed
// depends on its offset in a 64-byte line.
func step32(f float32, up bool) float32 {
	switch {
	case f == 0:
		f = math.Float32frombits(1) // the least subnormal, of either sign
		if !up {
			f = -f
		}
		return f
	case (f > 0) == up:
		return math.Float32frombits(math.Float32bits(f) + 1)
	}
	return math.Float32frombits(math.Float32bits(f) - 1)
}
