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
// points of [0, 1] that random cubes share with random rows; and for
// Box32, the edges of float32: its extremes, a finite float64 past them
// that rounds to infinity, its least subnormal, a float64 halfway
// between two float32s (rounded to the even one), and 0.1, which no
// float32 holds, beside its float64 neighbours and its float32 rounding.
var boxValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	0.25, 0.5, 0.75, 1, -1,
	math.MaxFloat32, -math.MaxFloat32, 2 * math.MaxFloat32, math.SmallestNonzeroFloat32, 1 + 0x1p-24,
	0.1, math.Nextafter(0.1, 1), math.Nextafter(0.1, 0), float64(float32(0.1)),
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
	checkBox32(t, cube, pts, guard32(round32(pts[:n*k])), n)
}

// round32 rounds every coordinate to the nearest float32, as netrt
// stores its boot points.
func round32(pts []float64) []float32 {
	out := make([]float32, len(pts))
	for i, x := range pts {
		out[i] = float32(x)
	}
	return out
}

// guard32 places float32 rows so that a read past the last of them
// faults, where the test can make such a page (boxmask_linux_test.go),
// and returns them where they are elsewhere.
var guard32 = func(rows []float32) []float32 { return rows }

// checkBox32 holds Box32.Mask on rows, the float32 rounding of the first
// n rows of pts, to what its cubes promise about the float64 rows: a row
// Region.Contains accepts has its outer bit, a row with its inner bit is
// one Contains accepts, and no bit is set past row n. The vector kernel,
// where the CPU has one, and the portable loop set the same bits.
func checkBox32(t *testing.T, cube []lph.Bounds, pts []float64, rows []float32, n int) {
	t.Helper()
	var b Box32
	b.Set(cube)
	outer, inner := b.Mask(rows, n)
	pOuter, pInner := b.maskRows(rows, n)
	r, k := Region{Cube: cube}, len(cube)
	if outer != pOuter || inner != pInner {
		t.Fatalf("k=%d n=%d cube %v: Box32 masks %#x/%#x, the portable loop %#x/%#x (AVX-512 %v)", k, n, cube, outer, inner, pOuter, pInner, cpu.AVX512())
	}
	for i := 0; i < 64; i++ {
		in := i < n && r.Contains(pts[i*k:(i+1)*k])
		o, w := outer>>i&1 == 1, inner>>i&1 == 1
		if in && !o || w && !in || i >= n && o {
			t.Fatalf("k=%d n=%d cube %v: row %d %v (as float32 %v) has outer %v, inner %v; Contains says %v", k, n, cube, i, pts[i*k:(i+1)*k], rows[i*k:(i+1)*k], o, w, in)
		}
	}
	for j, c := range b.Outer() {
		if x := cube[j]; x.Lo == x.Lo && x.Hi == x.Hi && !(c.Lo <= x.Lo && c.Hi >= x.Hi) {
			t.Fatalf("cube %v: the outer cube %v does not hold it on dimension %d", cube, b.Outer(), j)
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
// any n from 0 to 64 (boxCase); and Box32's two kernels to each other
// and its outer and inner cubes to Contains on the float64 rows whose
// float32 rounding it tests, those rows flush against a page that faults
// when read (guard32).
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
	// A Box32 set once to a cube of as many dimensions allocates nothing
	// when set again and masked.
	rows := round32(pts)
	var b Box32
	b.Set(cube)
	for _, portable := range []bool{false, true} {
		if allocs := testing.AllocsPerRun(100, func() {
			b.Set(cube)
			var outer, inner uint64
			if portable {
				outer, inner = b.maskRows(rows, 64)
			} else {
				outer, inner = b.Mask(rows, 64)
			}
			sink += outer + inner
		}); allocs != 0 {
			t.Fatalf("portable %v (AVX-512 %v): a Box32 mask allocated %.0f times", portable, cpu.AVX512(), allocs)
		}
	}
}
