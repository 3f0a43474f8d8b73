package query

import (
	"math"
	"math/rand"
	"testing"

	"landmarkdht/internal/lph"
)

func part2d(t *testing.T) *lph.Partitioner {
	t.Helper()
	p, err := lph.New(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func cube(b ...float64) []lph.Bounds {
	if len(b)%2 != 0 {
		panic("cube: need pairs")
	}
	out := make([]lph.Bounds, len(b)/2)
	for i := range out {
		out[i] = lph.Bounds{Lo: b[2*i], Hi: b[2*i+1]}
	}
	return out
}

// Reproduces figure 1(a): in the 2-d unit space, the query rectangle
// x∈[0.3,0.45], y∈[0.7,0.8] has smallest enclosing cuboid "011"
// (lower x half → 0, upper y half → 1, upper quarter of x-lower-half → 1).
func TestNewPrefixMatchesFigure1(t *testing.T) {
	p := part2d(t)
	r, err := New(p, cube(0.3, 0.45, 0.7, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	if r.PreLen != 3 {
		t.Fatalf("prelen = %d, want 3", r.PreLen)
	}
	want := lph.Key(0x6000000000000000) // bits 011
	if r.PreKey != want {
		t.Fatalf("prekey = %x, want %x", r.PreKey, want)
	}
	if err := r.Validate(p); err != nil {
		t.Fatal(err)
	}
}

// Figure 1(b): splitting Q at the next division yields prefixes 0110
// (lower y half of rectangle 011) and 0111 (upper y half).
func TestSplitMatchesFigure1b(t *testing.T) {
	p := part2d(t)
	r, _ := New(p, cube(0.3, 0.45, 0.7, 0.8))
	subs := Split(p, r, r.PreLen+1)
	if len(subs) != 2 {
		t.Fatalf("got %d subqueries, want 2", len(subs))
	}
	// Upper half first (bit set), per Algorithm 4.
	if subs[0].PreKey != 0x7000000000000000 { // 0111
		t.Fatalf("upper prekey = %x", subs[0].PreKey)
	}
	if subs[1].PreKey != 0x6000000000000000 { // 0110
		t.Fatalf("lower prekey = %x", subs[1].PreKey)
	}
	for _, s := range subs {
		if s.PreLen != 4 {
			t.Fatalf("prelen = %d, want 4", s.PreLen)
		}
		if err := s.Validate(p); err != nil {
			t.Fatal(err)
		}
	}
	// The split dimension at division 4 of a 2-d space is dim 1 (y).
	if subs[0].Cube[1].Lo != 0.75 {
		t.Fatalf("upper cube y = %+v, want lo=0.75", subs[0].Cube[1])
	}
	if subs[1].Cube[1].Hi != 0.75 {
		t.Fatalf("lower cube y = %+v, want hi=0.75", subs[1].Cube[1])
	}
	// X ranges unchanged.
	if subs[0].Cube[0] != subs[1].Cube[0] || subs[0].Cube[0].Lo != 0.3 {
		t.Fatalf("x ranges disturbed: %+v %+v", subs[0].Cube[0], subs[1].Cube[0])
	}
}

func TestNewClampsToBoundary(t *testing.T) {
	p := part2d(t)
	r, err := New(p, cube(-1, 2, 0.5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cube[0].Lo != 0 || r.Cube[0].Hi != 1 {
		t.Fatalf("x not clamped: %+v", r.Cube[0])
	}
	if r.Cube[1].Hi != 1 {
		t.Fatalf("y not clamped: %+v", r.Cube[1])
	}
}

func TestNewWholeSpaceHasEmptyPrefix(t *testing.T) {
	p := part2d(t)
	r, err := New(p, cube(0, 1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.PreLen != 0 || r.PreKey != 0 {
		t.Fatalf("whole-space query: prelen=%d prekey=%x", r.PreLen, r.PreKey)
	}
}

func TestNewPointQueryHasDeepPrefix(t *testing.T) {
	p := part2d(t)
	r, err := New(p, cube(0.3, 0.3, 0.7, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	// A point query refines until it hits an exact cell boundary or
	// depth 64; 0.3/0.7 are never exactly on dyadic boundaries, so the
	// prefix should be very deep (float precision bottoms out around
	// 2^-52 per dimension; 2 dims ⇒ depth > 50 easily).
	if r.PreLen < 50 {
		t.Fatalf("point query prelen = %d, want deep", r.PreLen)
	}
}

func TestNewRejectsBadCube(t *testing.T) {
	p := part2d(t)
	if _, err := New(p, cube(0.5, 0.4, 0, 1)); err == nil {
		t.Fatal("expected error for inverted range")
	}
	if _, err := New(p, cube(0, 1)); err == nil {
		t.Fatal("expected error for wrong dimensionality")
	}
}

// Property: a split preserves the union of cubes and produces disjoint
// halves tagged with sibling prefixes.
func TestQuickSplitPartition(t *testing.T) {
	p := part2d(t)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		lo0, hi0 := ordered(rng.Float64(), rng.Float64())
		lo1, hi1 := ordered(rng.Float64(), rng.Float64())
		r, err := New(p, cube(lo0, hi0, lo1, hi1))
		if err != nil {
			t.Fatal(err)
		}
		if r.PreLen == lph.M {
			continue
		}
		subs := Split(p, r, r.PreLen+1)
		switch len(subs) {
		case 1:
			if subs[0].PreLen != r.PreLen+1 {
				t.Fatal("single split must extend prefix by 1")
			}
			if subs[0].Cube[0] != r.Cube[0] || subs[0].Cube[1] != r.Cube[1] {
				t.Fatal("single split must not change the cube")
			}
		case 2:
			j := r.PreLen % p.K()
			u, l := subs[0], subs[1]
			if u.Cube[j].Lo != l.Cube[j].Hi {
				t.Fatalf("halves not adjacent: %+v %+v", u.Cube[j], l.Cube[j])
			}
			if u.Cube[j].Hi != r.Cube[j].Hi || l.Cube[j].Lo != r.Cube[j].Lo {
				t.Fatal("outer bounds disturbed")
			}
			if lph.GetBit(u.PreKey, r.PreLen+1) != 1 || lph.GetBit(l.PreKey, r.PreLen+1) != 0 {
				t.Fatal("sibling bits wrong")
			}
			if !lph.SamePrefix(u.PreKey, l.PreKey, r.PreLen) {
				t.Fatal("siblings must share the parent prefix")
			}
			for _, s := range subs {
				if err := s.Validate(p); err != nil {
					t.Fatal(err)
				}
			}
		default:
			t.Fatalf("split returned %d regions", len(subs))
		}
	}
}

func ordered(a, b float64) (float64, float64) {
	if a > b {
		return b, a
	}
	return a, b
}

func TestContains(t *testing.T) {
	r := Region{Cube: cube(0, 0.5, 0.5, 1)}
	if !r.Contains([]float64{0.25, 0.75}) {
		t.Fatal("point inside not detected")
	}
	if r.Contains([]float64{0.75, 0.75}) {
		t.Fatal("point outside accepted")
	}
	if r.Contains([]float64{0.25}) {
		t.Fatal("wrong dimensionality accepted")
	}
	// Boundary is closed.
	if !r.Contains([]float64{0.5, 0.5}) {
		t.Fatal("closed boundary rejected")
	}
}

func TestRestrict(t *testing.T) {
	p := part2d(t)
	r, _ := New(p, cube(0.3, 0.45, 0.7, 0.8))
	// Cuboid 0111: b1=0 → x lower half, b2=1 → y upper half,
	// b3=1 → x∈[0.25,0.5], b4=1 → y∈[0.75,1].
	pre := lph.Key(0x7000000000000000)
	nq, ok := Restrict(p, r, pre, 4)
	if !ok {
		t.Fatal("restrict reported empty")
	}
	if nq.PreKey != pre || nq.PreLen != 4 {
		t.Fatalf("retag wrong: %x/%d", nq.PreKey, nq.PreLen)
	}
	if nq.Cube[1].Lo != 0.75 || nq.Cube[1].Hi != 0.8 {
		t.Fatalf("y range = %+v, want [0.75,0.8]", nq.Cube[1])
	}
	if err := nq.Validate(p); err != nil {
		t.Fatal(err)
	}
	// Restricting to a disjoint cuboid reports empty.
	if _, ok := Restrict(p, r, lph.Key(0x8000000000000000), 1); ok {
		t.Fatal("expected empty intersection with x-upper half")
	}
}

func TestCloneIndependent(t *testing.T) {
	r := Region{Cube: cube(0, 1, 0, 1)}
	c := r.Clone()
	c.Cube[0].Lo = 0.5
	if r.Cube[0].Lo == 0.5 {
		t.Fatal("clone aliases cube")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	p := part2d(t)
	r, _ := New(p, cube(0.3, 0.45, 0.7, 0.8))
	bad := r.Clone()
	bad.PreKey |= 1 // non-zero bit beyond prefix
	if err := bad.Validate(p); err == nil {
		t.Fatal("expected prekey validation error")
	}
	bad2 := r.Clone()
	bad2.Cube[0] = lph.Bounds{Lo: 0.9, Hi: 0.95} // escapes cuboid 011
	if err := bad2.Validate(p); err == nil {
		t.Fatal("expected cube/cuboid validation error")
	}
	bad3 := r.Clone()
	bad3.PreLen = 99
	if err := bad3.Validate(p); err == nil {
		t.Fatal("expected prelen validation error")
	}
}

func TestSplitPanicsOnBadPos(t *testing.T) {
	p := part2d(t)
	r, _ := New(p, cube(0, 1, 0, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Split(p, r, 0)
}

// aroundReference is the loop core's queryRegion and netrt's
// dataset.QueryRegion each carried before Around replaced both.
func aroundReference(p *lph.Partitioner, center []float64, r float64) (Region, error) {
	cube := make([]lph.Bounds, len(center))
	for j, c := range center {
		b := p.Bounds(j)
		eps := 1e-9 * (1 + math.Abs(c) + r)
		cube[j] = lph.Bounds{Lo: b.Clamp(c - r - eps), Hi: b.Clamp(c + r + eps)}
	}
	return New(p, cube)
}

// TestAroundMatchesReference holds Around to the loop it replaced, every
// bound by its bits: centres inside, on and beyond the boundary, radii
// from zero to infinity and NaN, over bounds that are not dyadic. It also
// holds what the widening is for: a point whose every coordinate is
// within r of the centre's is inside the region.
func TestAroundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range []int{1, 2, 3, 6, 10} {
		p := refinePart(t, k)
		for i := 0; i < 4000; i++ {
			center, inside := make([]float64, k), make([]float64, k)
			r := []float64{0, 1e-12, rng.Float64(), 20 * rng.Float64(), 1e6, math.Inf(1), math.NaN()}[rng.Intn(7)]
			for j := range center {
				b := p.Bounds(j)
				center[j] = b.Lo + (1.4*rng.Float64()-0.2)*(b.Hi-b.Lo)
				if i%5 == 0 {
					center[j] = []float64{b.Lo, b.Hi, (b.Lo + b.Hi) / 2}[rng.Intn(3)]
				}
				inside[j] = b.Clamp(center[j] + (2*rng.Float64()-1)*r)
			}
			got, gotErr := Around(p, center, r)
			want, wantErr := aroundReference(p, center, r)
			if (gotErr == nil) != (wantErr == nil) || got.PreKey != want.PreKey || got.PreLen != want.PreLen || len(got.Cube) != len(want.Cube) {
				t.Fatalf("k=%d center %v r %v: got %+v (%v), the loop it replaced gives %+v (%v)", k, center, r, got, gotErr, want, wantErr)
			}
			for j := range got.Cube {
				if math.Float64bits(got.Cube[j].Lo) != math.Float64bits(want.Cube[j].Lo) ||
					math.Float64bits(got.Cube[j].Hi) != math.Float64bits(want.Cube[j].Hi) {
					t.Fatalf("k=%d center %v r %v dim %d: got %+v, want %+v", k, center, r, j, got.Cube[j], want.Cube[j])
				}
			}
			if gotErr == nil && !math.IsNaN(r) && !got.Contains(inside) {
				t.Fatalf("k=%d center %v r %v: %v is within r in every dimension and outside %+v", k, center, r, inside, got.Cube)
			}
		}
	}
}
