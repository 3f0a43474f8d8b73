package metric

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"landmarkdht/internal/cpu"
)

// l2Values are the floats a sum of squares can go wrong on: NaN, both
// infinities, both zeros, the subnormals and extremes, values whose
// square overflows to +Inf or underflows to a subnormal or to zero, and
// a few ordinary ones.
var l2Values = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	1e200, -1e200, 1e-160, -1e-160, 0.25, 0.5, 1, -1, 0.1, 3,
}

// l2Floats draws floats from raw, cycling through it: a byte below
// len(l2Values) picks that value, any other byte is followed by the
// eight bytes of a float64 taken as they are. An empty raw reads as
// zero bytes.
type l2Floats struct {
	raw []byte
	i   int
}

func (s *l2Floats) next() float64 {
	b := s.byte()
	if int(b) < len(l2Values) {
		return l2Values[b]
	}
	var w [8]byte
	for j := range w {
		w[j] = s.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
}

func (s *l2Floats) byte() byte {
	if len(s.raw) == 0 {
		return 0
	}
	b := s.raw[s.i%len(s.raw)]
	s.i++
	return b
}

// sameBits says whether two distances are the same float64, any NaN
// being the same as any other.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkL2Rows holds L2Rows — the vector kernel where the CPU has one —
// the kernel itself and the portable loop to L2, vector by vector:
// every distance to the bit (NaN as NaN) and every hit bit to dist <= r.
// pos must name rows of the slab.
func checkL2Rows(t *testing.T, q Vector, rows []float64, pos []int32, r float64) {
	t.Helper()
	dim := len(q)
	want := make([]float64, len(pos))
	var wantHits uint64
	for i, p := range pos {
		want[i] = L2(q, rows[int(p)*dim:(int(p)+1)*dim])
		if want[i] <= r {
			wantHits |= 1 << i
		}
	}
	type path struct {
		name string
		run  func(dist []float64) uint64
	}
	paths := []path{
		{"L2Rows", func(dist []float64) uint64 { return L2Rows(dist, q, rows, pos, r) }},
		{"l2Rows", func(dist []float64) uint64 { return l2Rows(dist, q, rows, pos, r) }},
	}
	if cpu.AVX512() && len(pos) > 0 {
		paths = append(paths, path{"l2RowsAVX512", func(dist []float64) uint64 {
			return l2RowsAVX512(&dist[0], &q[0], dim, &rows[0], &pos[0], len(pos), r)
		}})
	}
	for _, p := range paths {
		dist := make([]float64, len(pos)+1)
		dist[len(pos)] = 42 // past the batch: must stay as it is
		hits := p.run(dist)
		for i := range pos {
			if !sameBits(dist[i], want[i]) {
				t.Fatalf("%s: dim %d, %d positions %v, r %v: position %d (row %d) read %v (%#x), L2 %v (%#x)",
					p.name, dim, len(pos), pos, r, i, pos[i], dist[i], math.Float64bits(dist[i]), want[i], math.Float64bits(want[i]))
			}
		}
		if dist[len(pos)] != 42 {
			t.Fatalf("%s: dim %d, %d positions: wrote past the batch", p.name, dim, len(pos))
		}
		if hits != wantHits {
			t.Fatalf("%s: dim %d, %d positions, r %v: hits %#x, want %#x (distances %v)", p.name, dim, len(pos), r, hits, wantHits, want)
		}
	}
}

// l2Case decodes one fuzz input: dim in [1, 17], a slab of 1 to 16
// rows, up to 64 positions into it, in the order they are drawn, sorted
// up or sorted down (order), the radius, then q and the slab drawn from
// raw.
func l2Case(dimb, nb, order uint8, raw []byte) (Vector, []float64, []int32, float64) {
	dim, n := 1+int(dimb)%17, int(nb)%65
	s := &l2Floats{raw: raw}
	m := 1 + int(s.byte())%16
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = int32(int(s.byte()) % m)
	}
	switch order % 3 {
	case 1:
		slices.Sort(pos)
	case 2:
		slices.Sort(pos)
		slices.Reverse(pos)
	}
	r := s.next()
	q := make(Vector, dim)
	for j := range q {
		q[j] = s.next()
	}
	rows := make([]float64, m*dim)
	for i := range rows {
		rows[i] = s.next()
	}
	return q, rows, pos, r
}

// Every dim from 1 to 17 and every batch size up to 64, over vectors and
// radii drawn mostly from l2Values, and over unit-cube vectors with a
// radius about half of them are within, as a query's candidates are.
func TestL2RowsMatchesL2(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for dim := 1; dim <= 17; dim++ {
		for n := 0; n <= 64; n++ {
			raw := make([]byte, 96)
			for i := range raw {
				raw[i] = byte(rng.Intn(len(l2Values) + 2))
			}
			q, rows, pos, r := l2Case(uint8(dim-1), uint8(n), uint8(n), raw)
			checkL2Rows(t, q, rows, pos, r)

			for j := range q {
				q[j] = rng.Float64()
			}
			for i := range rows {
				rows[i] = rng.Float64()
			}
			checkL2Rows(t, q, rows, pos, math.Sqrt(float64(dim)/6))
		}
	}
}

// FuzzL2Rows holds the vector kernel, the portable loop and L2 to the
// same bits on any floats, any dim from 1 to 17 and any 0 to 64
// positions, repeated and in any order (l2Case).
func FuzzL2Rows(f *testing.F) {
	f.Add(uint8(7), uint8(64), uint8(1), []byte{200, 1, 2, 3, 4, 5, 6, 7, 8, 13, 14, 15, 16})
	f.Add(uint8(15), uint8(9), uint8(2), []byte{0, 3, 4, 9, 10, 11, 12})
	f.Add(uint8(16), uint8(1), uint8(0), []byte{1, 2, 5, 6})
	f.Add(uint8(0), uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, dim, n, order uint8, raw []byte) {
		q, rows, pos, r := l2Case(dim, n, order, raw)
		checkL2Rows(t, q, rows, pos, r)
	})
}

// TestL2RowsAllocatesNothing: a batch of distances costs no heap
// allocation, through L2Rows (the vector kernel where the CPU has it) or
// the portable loop.
func TestL2RowsAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const dim = 8
	q, rows := randVec(rng, dim), make([]float64, 100*dim)
	for i := range rows {
		rows[i] = rng.Float64()*200 - 100
	}
	pos := make([]int32, 64)
	for i := range pos {
		pos[i] = int32(rng.Intn(100))
	}
	var dist [64]float64
	var sink uint64
	for _, portable := range []bool{false, true} {
		if allocs := testing.AllocsPerRun(100, func() {
			if portable {
				sink += l2Rows(dist[:], q, rows, pos, 150)
			} else {
				sink += L2Rows(dist[:], q, rows, pos, 150)
			}
		}); allocs != 0 {
			t.Fatalf("portable %v (AVX-512 %v): a batch allocated %.0f times", portable, cpu.AVX512(), allocs)
		}
	}
	if sink == 0 {
		t.Fatal("no row was ever within the radius: the test measures nothing")
	}
}

// TestL2RowsRefusesRowsOutsideTheSlab: a position that names no whole
// row of the slab panics before the kernel reads anything.
func TestL2RowsRefusesRowsOutsideTheSlab(t *testing.T) {
	q := Vector{0, 0, 0}
	rows := make([]float64, 3*4+2) // four rows and two floats of a fifth
	var dist [2]float64
	for _, p := range []int32{4, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("position %d of a 4-row slab did not panic", p)
				}
			}()
			L2Rows(dist[:], q, rows, []int32{0, p}, 1)
		}()
	}
}

// BenchmarkL2RowsDim8 is one full batch of 64 scattered vectors of
// ring-scan's dimension: ns/row is what one exact distance costs inside
// a batch, beside BenchmarkL2Dim100's one call per distance.
func BenchmarkL2RowsDim8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const dim, m = 8, 4096
	q, rows := randVec(rng, dim), make([]float64, m*dim)
	for i := range rows {
		rows[i] = rng.Float64()*200 - 100
	}
	pos := make([]int32, 64)
	for i := range pos {
		pos[i] = int32(i * 3)
	}
	var dist [64]float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		L2Rows(dist[:], q, rows, pos, 150)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pos)), "ns/row")
}
