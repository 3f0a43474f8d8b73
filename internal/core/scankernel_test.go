package core

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	_ "unsafe" // for go:linkname

	"landmarkdht/internal/cpu"
	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
)

// setVector is the one switch between the AVX-512 kernels and their
// portable loops: it turns the kernels on (where the CPU has them) or
// off and returns whether they were on. It is a function, not the
// variable behind it, so that a rename on cpu's side fails the link
// instead of leaving this test a switch of its own.
//
//go:linkname setVector landmarkdht/internal/cpu.setVector
func setVector(on bool) (was bool)

// TestPortableScan runs the scan tests with the cube-mask kernel off, so
// that on a machine with AVX-512 the leaf test — boxes against a cube
// opened upward and downward, infinite bounds on one side — and the row
// test go through the portable loop the kernel falls back to elsewhere.
func TestPortableScan(t *testing.T) {
	was := setVector(false)
	defer setVector(was)
	if cpu.AVX512() {
		t.Fatal("the vector kernels are still on after they were turned off")
	}
	t.Run("ScanMatchesContains", TestScanMatchesContains)
	t.Run("ScanLargeRegion", TestScanLargeRegion)
	t.Run("ScanAcrossTailThreshold", TestScanAcrossTailThreshold)
	t.Run("ScanRows", func(t *testing.T) {
		for _, c := range scanRowsSeeds {
			checkScanRows(t, c.k, c.n, c.tail, c.raw)
		}
	})
}

// scanValues are the floats a box or a row test can go wrong on: NaN,
// both infinities, both zeros, the extremes, and a few lattice points
// that cubes and rows share.
var scanValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.MaxFloat64, -math.MaxFloat64, 0.25, 0.5, 0.75, 1, -1,
}

// scanFloats draws floats from raw, cycling through it: a byte below
// len(scanValues) picks that value, any other byte is followed by the
// eight bytes of a float64 taken as they are.
type scanFloats struct {
	raw []byte
	i   int
}

func (s *scanFloats) next() float64 {
	if len(s.raw) == 0 {
		return 0
	}
	b := s.byte()
	if int(b) < len(scanValues) {
		return scanValues[b]
	}
	var w [8]byte
	for j := range w {
		w[j] = s.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
}

func (s *scanFloats) byte() byte {
	b := s.raw[s.i%len(s.raw)]
	s.i++
	return b
}

// checkScanRows decodes one fuzz input — k in [1, 17], one past the
// kernel's limit; n in [0, 600] rows, more than 64 leaves; the cube's
// bounds and the rows drawn from raw — and stores the rows in two
// batches, the second n%(tail+1) rows long. Each row's key is its first
// coordinate in ascending order, so boxes are tight in that dimension
// and some leaves are passed over. After each batch ScanIDs must give
// the ids Region.Contains accepts over View, each once (the order is
// query.Rows', which FuzzRows holds).
func checkScanRows(t *testing.T, kb uint8, nb, tail uint16, raw []byte) {
	t.Helper()
	k, n := 1+int(kb)%17, int(nb)%601
	second := n % (int(tail) + 1)
	s := &scanFloats{raw: raw}
	cube := make([]lph.Bounds, k)
	for j := range cube {
		cube[j] = lph.Bounds{Lo: s.next(), Hi: s.next()}
	}
	keys, entries := make([]lph.Key, n), make([]Entry, n)
	for i := range entries {
		p := make([]float64, k)
		for j := range p {
			p[j] = s.next()
		}
		key := math.Float64bits(p[0])
		if key>>63 == 1 {
			key = ^key
		} else {
			key |= 1 << 63
		}
		keys[i], entries[i] = lph.Key(key), Entry{Obj: ObjectID(i), Point: p}
	}
	st, r := NewMemStore(), query.Region{Cube: cube}
	for _, b := range [][2]int{{0, n - second}, {n - second, n}} {
		if b[0] == b[1] {
			continue
		}
		if err := st.PutBatch("ix", keys[b[0]:b[1]], entries[b[0]:b[1]]); err != nil {
			t.Fatal(err)
		}
		got := st.ScanIDs("ix", r, nil)
		var want []int32
		st.View("ix", func(_ []lph.Key, stored []Entry) {
			for _, e := range stored {
				if r.Contains(e.Point) {
					want = append(want, int32(e.Obj))
				}
			}
		})
		if slices.Sort(got); !slices.Equal(got, want) {
			t.Fatalf("k=%d, %d rows, cube %v: ScanIDs = %v, Contains over View says %v (AVX-512 %v)",
				k, b[1], cube, got, want, cpu.AVX512())
		}
	}
}

// scanRowsSeeds: cubes on the lattice of scanValues, a NaN bound, an
// inverted one and an infinite one, over rows mostly on that lattice and
// a few NaN and arbitrary floats; with and without a tail.
var scanRowsSeeds = []struct {
	k       uint8
	n, tail uint16
	raw     []byte
}{
	{5, 300, 0, slices.Concat(slices.Repeat([]byte{7, 10}, 6), []byte{7, 8, 9, 10, 11, 8, 9, 0, 3})},
	{16, 600, 40, slices.Concat(slices.Repeat([]byte{7, 10}, 17), []byte{8, 9, 10, 7, 11, 4, 200, 1, 2, 3, 4, 5, 6, 7, 63})},
	{2, 513, 100, []byte{0, 10, 7, 10, 7, 10, 7, 8, 9, 10, 11}},
	{2, 400, 90, []byte{10, 7, 7, 10, 7, 10, 7, 8, 9, 10, 11, 0}},
	{3, 200, 0, []byte{2, 1, 9, 10, 2, 10, 9, 1, 7, 8, 0, 9, 10, 5, 6, 4}},
	{0, 70, 12, []byte{8, 9, 7, 8, 9, 10, 11, 3}},
	{8, 0, 0, []byte{}},
}

// FuzzScanRows holds a MemStore's scan — its entries' rows in
// query.Rows, built by the scan that finds them — to Region.Contains on
// any floats (checkScanRows).
func FuzzScanRows(f *testing.F) {
	for _, c := range scanRowsSeeds {
		f.Add(c.k, c.n, c.tail, c.raw)
	}
	f.Fuzz(checkScanRows)
}
