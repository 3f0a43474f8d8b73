package lph

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, k int, lo, hi float64) *Partitioner {
	t.Helper()
	p, err := New(k, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0, 1); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := New(2, 1, 1); err == nil {
		t.Fatal("expected error for empty range")
	}
	if _, err := NewWithBounds(nil); err == nil {
		t.Fatal("expected error for no bounds")
	}
	if _, err := NewWithBounds([]Bounds{{0, 1}, {2, 2}}); err == nil {
		t.Fatal("expected error for empty dim bound")
	}
}

func TestBitHelpers(t *testing.T) {
	var k Key = 0x8000000000000001 // bit 1 and bit 64 set
	if GetBit(k, 1) != 1 || GetBit(k, 2) != 0 || GetBit(k, 64) != 1 {
		t.Fatalf("GetBit wrong: %d %d %d", GetBit(k, 1), GetBit(k, 2), GetBit(k, 64))
	}
	if SetBit(0, 1) != 0x8000000000000000 {
		t.Fatalf("SetBit(0,1) = %x", SetBit(0, 1))
	}
	if SetBit(0, 64) != 1 {
		t.Fatalf("SetBit(0,64) = %x", SetBit(0, 64))
	}
}

func TestPrefixHelpers(t *testing.T) {
	if PrefixMask(0) != 0 {
		t.Fatalf("PrefixMask(0) = %x", PrefixMask(0))
	}
	if PrefixMask(64) != ^Key(0) {
		t.Fatalf("PrefixMask(64) = %x", PrefixMask(64))
	}
	if PrefixMask(3) != 0xE000000000000000 {
		t.Fatalf("PrefixMask(3) = %x", PrefixMask(3))
	}
	k := Key(0xDEADBEEFCAFEBABE)
	if Prefix(k, 8) != 0xDE00000000000000 {
		t.Fatalf("Prefix = %x", Prefix(k, 8))
	}
	if !SamePrefix(0xDE00000000000000, k, 8) {
		t.Fatal("SamePrefix false negative")
	}
	if SamePrefix(0xDF00000000000000, k, 8) {
		t.Fatal("SamePrefix false positive")
	}
	if !SamePrefix(1, 2, 0) {
		t.Fatal("zero-length prefix must always match")
	}
}

func TestFirstZeroBitAfter(t *testing.T) {
	if got := FirstZeroBitAfter(^Key(0), 0); got != 0 {
		t.Fatalf("all-ones: got %d, want 0", got)
	}
	// 101... : bit1=1, bit2=0
	k := Key(0xA000000000000000)
	if got := FirstZeroBitAfter(k, 1); got != 2 {
		t.Fatalf("got %d, want 2", got)
	}
	if got := FirstZeroBitAfter(k, 2); got != 4 {
		t.Fatalf("got %d, want 4", got)
	}
	if got := FirstZeroBitAfter(^Key(0)-1, 63); got != 64 {
		t.Fatalf("got %d, want 64", got)
	}
}

func TestCuboidSpan(t *testing.T) {
	lo, hi := CuboidSpan(0xFF00000000000000, 4)
	if lo != 0xF000000000000000 || hi != 0 {
		t.Fatalf("span = [%x, %x)", lo, hi)
	}
	lo, hi = CuboidSpan(0, 0)
	if lo != 0 || hi != 0 {
		t.Fatalf("whole-ring span = [%x, %x)", lo, hi)
	}
	lo, hi = CuboidSpan(0x4000000000000000, 2)
	if lo != 0x4000000000000000 || hi != 0x8000000000000000 {
		t.Fatalf("span = [%x, %x)", lo, hi)
	}
}

// Figure 1(a) of the paper: in a 2-d space recursively partitioned,
// the rectangle labeled "011" covers x in the lower half after the
// first division (bit1=0 on dim0), y upper half (bit2=1 on dim1), and
// x upper quarter of the lower half (bit3=1 on dim0).
func TestCuboidMatchesPaperFigure1(t *testing.T) {
	p := mustNew(t, 2, 0, 1)
	prekey := Key(0x6000000000000000) // bits "011" then zeros
	c := p.Cuboid(prekey, 3)
	if c[0].Lo != 0.25 || c[0].Hi != 0.5 {
		t.Fatalf("dim0 = %+v, want [0.25,0.5]", c[0])
	}
	if c[1].Lo != 0.5 || c[1].Hi != 1 {
		t.Fatalf("dim1 = %+v, want [0.5,1]", c[1])
	}
}

func TestHashKnownQuadrants(t *testing.T) {
	p := mustNew(t, 2, 0, 1)
	// First two bits select (x-half, y-half).
	cases := []struct {
		pt []float64
		b1 uint
		b2 uint
	}{
		{[]float64{0.1, 0.1}, 0, 0},
		{[]float64{0.9, 0.1}, 1, 0},
		{[]float64{0.1, 0.9}, 0, 1},
		{[]float64{0.9, 0.9}, 1, 1},
	}
	for _, c := range cases {
		k := p.Hash(c.pt)
		if GetBit(k, 1) != c.b1 || GetBit(k, 2) != c.b2 {
			t.Errorf("Hash(%v) = %x, want bits (%d,%d)", c.pt, k, c.b1, c.b2)
		}
	}
}

func TestHashClampsOutOfRange(t *testing.T) {
	p := mustNew(t, 2, 0, 1)
	inside := p.Hash([]float64{1, 1})
	outside := p.Hash([]float64{5, 7})
	if inside != outside {
		t.Fatalf("out-of-range point not clamped: %x vs %x", inside, outside)
	}
	low := p.Hash([]float64{0, 0})
	lower := p.Hash([]float64{-3, -3})
	if low != lower {
		t.Fatalf("below-range point not clamped: %x vs %x", low, lower)
	}
}

func TestHashPanicsOnDimMismatch(t *testing.T) {
	p := mustNew(t, 3, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Hash([]float64{1, 2})
}

// Property: the cuboid reconstructed from a point's full key contains
// the (clamped) point.
func TestQuickHashCuboidContainsPoint(t *testing.T) {
	p := mustNew(t, 3, -10, 10)
	f := func(a, b, c float64) bool {
		pt := []float64{clampf(a, -10, 10), clampf(b, -10, 10), clampf(c, -10, 10)}
		key := p.Hash(pt)
		cu := p.Cuboid(key, M)
		for j := range pt {
			// Allow the half-open convention: point can sit exactly on
			// a boundary shared with the neighboring cuboid.
			if pt[j] < cu[j].Lo-1e-12 || pt[j] > cu[j].Hi+1e-12 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1)), Values: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func clampf(x, lo, hi float64) float64 {
	if x != x || x < lo { // NaN or below
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Property: locality. Points within the same cuboid at depth l share
// an l-bit key prefix; conversely a key's first bits identify
// progressively smaller boxes around the point.
func TestLocalityPrefixSharing(t *testing.T) {
	p := mustNew(t, 2, 0, 1)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		// Pick a random depth-8 cuboid and two random points inside it.
		var prekey Key
		for i := 1; i <= 8; i++ {
			if rng.Intn(2) == 1 {
				prekey = SetBit(prekey, i)
			}
		}
		cu := p.Cuboid(prekey, 8)
		mk := func() []float64 {
			pt := make([]float64, 2)
			for j := range pt {
				pt[j] = cu[j].Lo + rng.Float64()*(cu[j].Hi-cu[j].Lo)*0.999 + 1e-9
			}
			return pt
		}
		k1, k2 := p.Hash(mk()), p.Hash(mk())
		if !SamePrefix(k1, k2, 8) {
			t.Fatalf("points in same depth-8 cuboid got prefixes %x vs %x", k1, k2)
		}
		if !SamePrefix(k1, prekey, 8) {
			t.Fatalf("hash prefix %x does not match cuboid %x", Prefix(k1, 8), Prefix(prekey, 8))
		}
	}
}

// Property: contraction of key distance with spatial distance — the
// closer two points, the longer (on average) the shared prefix. We
// check the deterministic core: halving the distance to a fixed point
// along dimension 0 never shortens the shared prefix by more than the
// alternation period.
func TestLocalityMonotoneAlongDim(t *testing.T) {
	p := mustNew(t, 1, 0, 1)
	base := p.Hash([]float64{0.5001})
	prev := -1
	for _, d := range []float64{0.4, 0.2, 0.1, 0.05, 0.01, 0.001} {
		k := p.Hash([]float64{0.5001 + d})
		shared := sharedPrefixLen(base, k)
		if shared < prev {
			t.Fatalf("shared prefix shrank from %d to %d as points got closer", prev, shared)
		}
		prev = shared
	}
}

func sharedPrefixLen(a, b Key) int {
	for l := M; l >= 0; l-- {
		if SamePrefix(a, b, l) {
			return l
		}
	}
	return 0
}

func TestSplitMidMatchesCuboid(t *testing.T) {
	p := mustNew(t, 3, 0, 8)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		key := Key(rng.Uint64())
		pos := 1 + rng.Intn(24)
		j := (pos - 1) % 3
		// SplitMid must equal the midpoint of dimension j of the
		// cuboid identified by the first pos-1 bits.
		cu := p.Cuboid(key, pos-1)
		want := cu[j].Mid()
		if got := p.SplitMid(key, pos); got != want {
			t.Fatalf("SplitMid(key=%x,pos=%d) = %v, want %v", key, pos, got, want)
		}
	}
}

func TestRotation(t *testing.T) {
	p := mustNew(t, 2, 0, 1)
	r := p.WithRotation(1000)
	if p.Phi() != 0 || r.Phi() != 1000 {
		t.Fatalf("phi: %d, %d", p.Phi(), r.Phi())
	}
	pt := []float64{0.3, 0.7}
	if r.MapPoint(pt) != p.Hash(pt)+1000 {
		t.Fatal("MapPoint must add phi")
	}
	if r.Unring(r.Ring(0xABCD)) != 0xABCD {
		t.Fatal("Unring(Ring(x)) != x")
	}
	// Wrap-around is fine with uint64 arithmetic.
	big := p.WithRotation(^Key(0))
	if big.Ring(5) != 4 {
		t.Fatalf("wraparound ring = %d, want 4", big.Ring(5))
	}
	if big.Unring(4) != 5 {
		t.Fatalf("wraparound unring = %d, want 5", big.Unring(4))
	}
	// Rotation must not mutate the original.
	if p.Phi() != 0 {
		t.Fatal("WithRotation mutated receiver")
	}
}

func TestPhiForName(t *testing.T) {
	a, b := PhiForName("index-a"), PhiForName("index-b")
	if a == b {
		t.Fatal("distinct names should rotate differently")
	}
	if PhiForName("index-a") != a {
		t.Fatal("PhiForName must be deterministic")
	}
}

// Names differing only in a trailing character must produce offsets
// far apart on the ring — otherwise simultaneous index schemes with
// similar names keep overlapping hotspots (the whole point of the
// rotation is to separate them).
func TestPhiForNameAvalanche(t *testing.T) {
	const minSep = Key(1) << 48
	phis := make([]Key, 8)
	for i := range phis {
		phis[i] = PhiForName("syn-l2" + string(rune('a'+i)))
	}
	for i := range phis {
		for j := i + 1; j < len(phis); j++ {
			d := phis[i] - phis[j]
			if d > ^Key(0)/2 {
				d = -d
			}
			if d < minSep {
				t.Fatalf("offsets %d and %d only %#x apart", i, j, d)
			}
		}
	}
}

func TestBoundsHelpers(t *testing.T) {
	b := Bounds{2, 6}
	if b.Mid() != 4 {
		t.Fatalf("Mid = %v", b.Mid())
	}
	if !b.Contains(2) || !b.Contains(6) || b.Contains(6.01) {
		t.Fatal("Contains wrong")
	}
	if b.Clamp(1) != 2 || b.Clamp(7) != 6 || b.Clamp(3) != 3 {
		t.Fatal("Clamp wrong")
	}
}

func TestCuboidPanicsOnBadPrelen(t *testing.T) {
	p := mustNew(t, 2, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Cuboid(0, 65)
}

func TestAllBoundsIsCopy(t *testing.T) {
	p := mustNew(t, 2, 0, 1)
	ab := p.AllBounds()
	ab[0].Lo = 99
	if p.Bounds(0).Lo == 99 {
		t.Fatal("AllBounds aliases internal state")
	}
}

// hashAlgorithm2 is Algorithm 2 as the paper writes it, the loop Hash
// replaced, kept as it was: at division i the dimension is (i-1) mod k,
// the coordinate is clamped to the current interval, and a branch picks
// the half.
func hashAlgorithm2(p *Partitioner, point []float64) Key {
	var local [16]Bounds
	var r []Bounds
	if p.k <= len(local) {
		r = local[:p.k]
	} else {
		r = make([]Bounds, p.k)
	}
	copy(r, p.bounds)
	var key Key
	for i := 1; i <= M; i++ {
		j := (i - 1) % p.k
		mid := r[j].Mid()
		x := r[j].Clamp(point[j])
		if x > mid {
			r[j].Lo = mid
			key = key<<1 | 1
		} else {
			r[j].Hi = mid
			key <<= 1
		}
	}
	return key
}

// cuboidAlgorithm2 is the prefix walk Cuboid replaced, with the
// dimension taken as (i-1) mod k at every division.
func cuboidAlgorithm2(p *Partitioner, prekey Key, prelen int) []Bounds {
	r := append([]Bounds(nil), p.bounds...)
	for i := 1; i <= prelen; i++ {
		b := &r[(i-1)%p.k]
		if GetBit(prekey, i) == 1 {
			b.Lo = b.Mid()
		} else {
			b.Hi = b.Mid()
		}
	}
	return r
}

// hashBounds are boundaries that stress the bisection's arithmetic:
// the ordinary, per-dimension ones, midpoints that underflow to −0
// (where a bit read from the sign of mid − x would part from x > mid,
// −0 − (+0) being −0), the widest that Hash clamps once
// (±MaxFloat64/2), sums that overflow and infinite ends, whose
// midpoints are ±Inf or NaN.
func hashBounds(k int) [][]Bounds {
	tiny := math.SmallestNonzeroFloat64
	shapes := [][2]float64{
		{0, 1}, {-1000, 1000}, {3, 3.5}, {-tiny, 0}, {-tiny, math.Copysign(0, -1)}, {0, 4 * tiny},
		{-math.MaxFloat64 / 2, math.MaxFloat64 / 2}, {math.MaxFloat64 / 4, math.MaxFloat64 / 2},
		{math.MaxFloat64 / 2, math.MaxFloat64}, {-math.MaxFloat64, math.MaxFloat64},
		{math.Inf(-1), 0}, {0, math.Inf(1)}, {math.Inf(-1), math.Inf(1)},
	}
	var out [][]Bounds
	for _, s := range shapes {
		b := make([]Bounds, k)
		for j := range b {
			b[j] = Bounds{s[0], s[1]}
		}
		out = append(out, b)
	}
	mixed := make([]Bounds, k) // every dimension its own shape
	for j := range mixed {
		s := shapes[j%len(shapes)]
		mixed[j] = Bounds{s[0], s[1]}
	}
	return append(out, mixed)
}

// hashCoord draws one coordinate for dimension b: inside, outside, on
// a bound or a midpoint, or one of the values no comparison orders
// the usual way.
func hashCoord(rng *rand.Rand, b Bounds) float64 {
	specials := []float64{
		b.Lo, b.Hi, b.Mid(), math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(math.NaN(), -1),
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Nextafter(b.Lo, math.Inf(-1)), math.Nextafter(b.Hi, math.Inf(1)),
	}
	switch c := rng.Intn(4); {
	case c == 0:
		return specials[rng.Intn(len(specials))]
	case c == 1 && !math.IsInf(b.Hi-b.Lo, 0):
		return b.Lo + (rng.Float64()*3-1)*(b.Hi-b.Lo) // a third below, a third inside, a third above
	default:
		return b.Lo + rng.Float64()*(b.Hi-b.Lo)
	}
}

// Hash is Algorithm 2 bit for bit: on k from 1 to 20 (above 16 the
// bisection state leaves the stack), on every boundary shape, and on
// points below, above, on and between the bounds, ±Inf, ±NaN and −0.
func TestHashMatchesAlgorithm2(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for k := 1; k <= 20; k++ {
		for _, bounds := range hashBounds(k) {
			p, err := NewWithBounds(bounds)
			if err != nil {
				t.Fatal(err)
			}
			pt := make([]float64, k)
			for trial := 0; trial < 200; trial++ {
				for j := range pt {
					pt[j] = hashCoord(rng, bounds[j])
				}
				if got, want := p.Hash(pt), hashAlgorithm2(p, pt); got != want {
					t.Fatalf("k=%d bounds %v: Hash(%v) = %#x, Algorithm 2 %#x", k, bounds, pt, got, want)
				}
			}
		}
	}
}

// Cuboid and SplitMid walk the prefix with a wrapping counter; they
// must give the bounds the (i-1) mod k walk gives, to the bit.
func TestCuboidMatchesAlgorithm2(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	same := func(a, b Bounds) bool {
		return math.Float64bits(a.Lo) == math.Float64bits(b.Lo) && math.Float64bits(a.Hi) == math.Float64bits(b.Hi)
	}
	for k := 1; k <= 20; k++ {
		for _, bounds := range hashBounds(k) {
			p, err := NewWithBounds(bounds)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 20; trial++ {
				key, prelen := Key(rng.Uint64()), rng.Intn(M+1)
				got, want := p.Cuboid(key, prelen), cuboidAlgorithm2(p, key, prelen)
				for j := range want {
					if !same(got[j], want[j]) {
						t.Fatalf("k=%d bounds %v: Cuboid(%#x, %d)[%d] = %v, want %v", k, bounds, key, prelen, j, got[j], want[j])
					}
				}
				pos := 1 + rng.Intn(M)
				mid := cuboidAlgorithm2(p, key, pos-1)[(pos-1)%k].Mid()
				if got := p.SplitMid(key, pos); math.Float64bits(got) != math.Float64bits(mid) {
					t.Fatalf("k=%d bounds %v: SplitMid(%#x, %d) = %v, want %v", k, bounds, key, pos, got, mid)
				}
			}
		}
	}
}

// FuzzHash holds Hash to Algorithm 2 on any floats: k from 1 to 20,
// each dimension's boundary and coordinate read from the input, eight
// bytes a float (a dimension whose pair is not a boundary takes
// [lo, hi]).
func FuzzHash(f *testing.F) {
	f.Add(uint8(6), 0.0, 1.0, []byte{})
	f.Add(uint8(1), -1.0, 1.0, binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())))
	f.Add(uint8(19), math.Inf(-1), math.Inf(1), binary.LittleEndian.AppendUint64(nil, 1<<63))
	f.Add(uint8(3), -math.SmallestNonzeroFloat64, 0.0, make([]byte, 72))
	f.Fuzz(func(t *testing.T, k uint8, lo, hi float64, data []byte) {
		if !(hi > lo) {
			return
		}
		next := func() float64 {
			if len(data) < 8 {
				return 0
			}
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return x
		}
		n := 1 + int(k)%20
		bounds := make([]Bounds, n)
		pt := make([]float64, n)
		for j := range bounds {
			if a, b := next(), next(); b > a {
				bounds[j] = Bounds{a, b}
			} else {
				bounds[j] = Bounds{lo, hi}
			}
			pt[j] = next()
		}
		p, err := NewWithBounds(bounds)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.Hash(pt), hashAlgorithm2(p, pt); got != want {
			t.Fatalf("bounds %v: Hash(%v) = %#x, Algorithm 2 %#x", bounds, pt, got, want)
		}
	})
}

// BenchmarkHash hashes a seeded cycle of 1024 points, so that the
// branch predictor cannot learn one point's bits, at k = 6 (bench's
// corpora) and k = 10, beside the literal Algorithm 2 on the same
// points.
func BenchmarkHash(b *testing.B) {
	for _, k := range []int{6, 10} {
		p, err := New(k, 0, 1000)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		pts := make([][]float64, 1024)
		for i := range pts {
			pts[i] = make([]float64, k)
			for j := range pts[i] {
				pts[i][j] = rng.Float64() * 1000
			}
		}
		for _, impl := range []struct {
			name string
			hash func([]float64) Key
		}{
			{"Hash", p.Hash},
			{"algorithm2", func(pt []float64) Key { return hashAlgorithm2(p, pt) }},
		} {
			b.Run(fmt.Sprintf("%s/k=%d", impl.name, k), func(b *testing.B) {
				b.ReportAllocs()
				var sink Key
				for i := 0; i < b.N; i++ {
					sink += impl.hash(pts[i%len(pts)])
				}
				if sink == 1 {
					b.Log(sink)
				}
			})
		}
	}
}
