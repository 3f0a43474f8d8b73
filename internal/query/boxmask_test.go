package query

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"landmarkdht/internal/cpu"
	"landmarkdht/internal/lph"
)

// boxValues are the floats a cube test can go wrong on: NaN, both
// infinities, both zeros, the subnormals and extremes, and the lattice
// points of [0, 1] that random cubes share with random rows.
var boxValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	0.25, 0.5, 0.75, 1, -1,
}

// boxFloats draws floats from raw, cycling through it: a byte below
// len(boxValues) picks that value, any other byte is followed by the
// eight bytes of a float64 taken as they are.
type boxFloats struct {
	raw []byte
	i   int
}

func (s *boxFloats) next() float64 {
	if len(s.raw) == 0 {
		return 0
	}
	b := s.byte()
	if int(b) < len(boxValues) {
		return boxValues[b]
	}
	var w [8]byte
	for j := range w {
		w[j] = s.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
}

func (s *boxFloats) byte() byte {
	b := s.raw[s.i%len(s.raw)]
	s.i++
	return b
}

// checkBoxMask holds Mask — the vector kernel where the CPU has one — and
// the portable loop to Region.Contains, row by row, on the first n rows
// of pts.
func checkBoxMask(t *testing.T, cube []lph.Bounds, pts []float64, n int) {
	t.Helper()
	var b Box
	b.Set(cube)
	got, portable := b.Mask(pts, n), b.maskRows(pts, n)
	r, k := Region{Cube: cube}, len(cube)
	for i := 0; i < 64; i++ {
		want := i < n && r.Contains(pts[i*k:(i+1)*k])
		if bit := got>>i&1 == 1; bit != want {
			t.Fatalf("k=%d n=%d cube %v: Mask says row %d (%v) is in=%v, Contains %v (AVX-512 %v)", k, n, cube, i, pts[i*k:(i+1)*k], bit, want, cpu.AVX512())
		}
		if bit := portable>>i&1 == 1; bit != want {
			t.Fatalf("k=%d n=%d cube %v: the portable loop says row %d (%v) is in=%v, Contains %v", k, n, cube, i, pts[i*k:(i+1)*k], bit, want)
		}
	}
}

// boxCase decodes one fuzz input: k in [1, 17] — one past the kernel's
// limit — n in [0, 64], the cube's bounds and then the rows drawn from
// raw.
func boxCase(kb, nb uint8, raw []byte) ([]lph.Bounds, []float64, int) {
	k, n := 1+int(kb)%17, int(nb)%65
	s := &boxFloats{raw: raw}
	cube := make([]lph.Bounds, k)
	for j := range cube {
		cube[j] = lph.Bounds{Lo: s.next(), Hi: s.next()}
	}
	pts := make([]float64, n*k)
	for i := range pts {
		pts[i] = s.next()
	}
	return cube, pts, n
}

// Every k up to one past the kernel's and every n up to 64, over rows and
// cubes drawn mostly from boxValues — equal and inverted sides, NaN and
// infinite bounds, −0 against +0 — and over unit-cube rows and cubes,
// where about half the rows are in.
func TestBoxMaskMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for k := 1; k <= 17; k++ {
		for n := 0; n <= 64; n++ {
			raw := make([]byte, 64)
			for i := range raw {
				raw[i] = byte(rng.Intn(len(boxValues) + 2))
			}
			cube, pts, _ := boxCase(uint8(k-1), uint8(n), raw)
			checkBoxMask(t, cube, pts, n)

			for j := range cube {
				lo, hi := rng.Float64(), rng.Float64()
				cube[j] = lph.Bounds{Lo: min(lo, hi), Hi: max(lo, hi)}
			}
			for i := range pts {
				pts[i] = rng.Float64()
			}
			checkBoxMask(t, cube, pts, n)
		}
	}
}

// FuzzBoxMask holds the vector kernel, the portable loop and
// Region.Contains to the same bits on any floats, any k from 1 to 17 and
// any n from 0 to 64 (boxCase).
func FuzzBoxMask(f *testing.F) {
	f.Add(uint8(5), uint8(32), []byte{0, 1, 2, 3, 4, 9, 10, 11})
	f.Add(uint8(15), uint8(64), []byte{11, 12, 3, 4, 200, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(16), uint8(1), []byte{4, 3, 3, 4})
	f.Add(uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, k, n uint8, raw []byte) {
		cube, pts, rows := boxCase(k, n, raw)
		checkBoxMask(t, cube, pts, rows)
	})
}

// TestBoxMaskAllocatesNothing: laying out a cube and testing rows against
// it costs no heap allocation, through Mask (the vector kernel where the
// CPU has it) or the portable loop.
func TestBoxMaskAllocatesNothing(t *testing.T) {
	cube := cube(0.2, 0.8, 0.1, 0.9, 0.3, 0.7, 0, 1, 0.4, 0.6, 0.5, 0.5)
	pts := make([]float64, 64*len(cube))
	for i := range pts {
		pts[i] = 0.5 // inside on every dimension
		if i%7 == 0 {
			pts[i] = 0.95 // outside on all but the fourth
		}
	}
	var sink uint64
	for _, portable := range []bool{false, true} {
		if allocs := testing.AllocsPerRun(100, func() {
			var b Box
			b.Set(cube)
			if portable {
				sink += b.maskRows(pts, 64)
			} else {
				sink += b.Mask(pts, 64)
			}
		}); allocs != 0 {
			t.Fatalf("portable %v (AVX-512 %v): a box mask allocated %.0f times", portable, cpu.AVX512(), allocs)
		}
	}
	if sink == 0 {
		t.Fatal("no row was ever inside: the test measures nothing")
	}
}
