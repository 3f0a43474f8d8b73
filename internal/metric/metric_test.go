package metric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, dim int) Vector {
	v := make(Vector, dim)
	for i := range v {
		v[i] = rng.Float64()*200 - 100
	}
	return v
}

// checkAxioms verifies the four metric-space properties from
// Definition 1 on random triples.
func checkAxioms[T any](t *testing.T, name string, d Distance[T], gen func(*rand.Rand) T, eq func(a, b T) bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	const eps = 1e-9
	for i := 0; i < 300; i++ {
		x, y, z := gen(rng), gen(rng), gen(rng)
		dxy, dyx := d(x, y), d(y, x)
		if dxy < 0 {
			t.Fatalf("%s: positivity violated: d=%v", name, dxy)
		}
		if math.Abs(dxy-dyx) > eps {
			t.Fatalf("%s: symmetry violated: %v vs %v", name, dxy, dyx)
		}
		if d(x, x) > eps {
			t.Fatalf("%s: reflexivity violated: d(x,x)=%v", name, d(x, x))
		}
		if eq(x, y) && dxy > eps {
			t.Fatalf("%s: equal objects at distance %v", name, dxy)
		}
		if d(x, y)+d(y, z) < d(x, z)-eps {
			t.Fatalf("%s: triangle inequality violated: %v + %v < %v", name, d(x, y), d(y, z), d(x, z))
		}
	}
}

func vecEq(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestL2Axioms(t *testing.T) {
	checkAxioms(t, "L2", L2, func(r *rand.Rand) Vector { return randVec(r, 8) }, vecEq)
}

func TestL1Axioms(t *testing.T) {
	checkAxioms(t, "L1", L1, func(r *rand.Rand) Vector { return randVec(r, 8) }, vecEq)
}

func TestLInfAxioms(t *testing.T) {
	checkAxioms(t, "LInf", LInf, func(r *rand.Rand) Vector { return randVec(r, 8) }, vecEq)
}

func TestLpAxioms(t *testing.T) {
	checkAxioms(t, "L3", Lp(3), func(r *rand.Rand) Vector { return randVec(r, 8) }, vecEq)
}

func TestEditAxioms(t *testing.T) {
	alpha := "ACGT"
	gen := func(r *rand.Rand) string {
		n := r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[r.Intn(len(alpha))]
		}
		return string(b)
	}
	checkAxioms(t, "Edit", Edit, gen, func(a, b string) bool { return a == b })
}

func TestHausdorffAxioms(t *testing.T) {
	gen := func(r *rand.Rand) PointSet {
		n := 1 + r.Intn(5)
		ps := make(PointSet, n)
		for i := range ps {
			ps[i] = randVec(r, 3)
		}
		return ps
	}
	// Hausdorff reflexivity over sets needs set equality; just use
	// pointer-distinct sets and skip the eq clause.
	checkAxioms(t, "Hausdorff", Hausdorff(L2), gen, func(a, b PointSet) bool { return false })
}

func TestL2KnownValues(t *testing.T) {
	if got := L2(Vector{0, 0}, Vector{3, 4}); got != 5 {
		t.Fatalf("L2 = %v, want 5", got)
	}
	if got := L1(Vector{0, 0}, Vector{3, 4}); got != 7 {
		t.Fatalf("L1 = %v, want 7", got)
	}
	if got := LInf(Vector{0, 0}, Vector{3, 4}); got != 4 {
		t.Fatalf("LInf = %v, want 4", got)
	}
}

// TestL2RoundsEverySquare pins L2's bits on inputs, found by search over
// unit-cube vectors, where fusing a square into the sum — math.FMA(d,
// d, sum), which the Go spec lets a compiler emit for sum += d*d and
// arm64's does — rounds the distance differently. L2 must give the
// unfused bits on every architecture.
func TestL2RoundsEverySquare(t *testing.T) {
	for _, tc := range []struct {
		a, b Vector
		want uint64
	}{
		{Vector{0.21426387258237492, 0.31805817433032985}, Vector{0.380657189299686, 0.4688898449024232}, 0x3fccbf17a276b259},
		{Vector{0.18292491645390843, 0.8969919575618727, 0.9789293555766876},
			Vector{0.4283570818068078, 0.6826534880132438, 0.9222122589217269}, 0x3fd52afcefc88f15},
		{Vector{0.07619026230375504, 0.15965092146489504, 0.32261068286779754, 0.5708516273454957,
			0.6841751300974551, 0.524499759549865, 0.7163683749016712, 0.012825909106361078},
			Vector{0.3152080853201245, 0.13780406161952607, 0.5390745170394794, 0.5127817581110815,
				0.6530402051353608, 0.654270134424146, 0.6366442140381798, 0.030682195787138565}, 0x3fd747d07a32b7d5},
	} {
		var fused float64
		for i := range tc.a {
			d := tc.a[i] - tc.b[i]
			fused = math.FMA(d, d, fused)
		}
		if got := math.Float64bits(math.Sqrt(fused)); got == tc.want {
			t.Fatalf("dim %d: the fused sum gives the pinned bits too: the input tells nothing apart", len(tc.a))
		}
		if got := math.Float64bits(L2(tc.a, tc.b)); got != tc.want {
			t.Errorf("dim %d: L2 = %#x, want %#x", len(tc.a), got, tc.want)
		}
	}
}

func TestLpMatchesSpecialCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a, b := randVec(rng, 6), randVec(rng, 6)
		if math.Abs(Lp(1)(a, b)-L1(a, b)) > 1e-9 {
			t.Fatal("Lp(1) != L1")
		}
		if math.Abs(Lp(2)(a, b)-L2(a, b)) > 1e-9 {
			t.Fatal("Lp(2) != L2")
		}
	}
}

func TestLpPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k < 1")
		}
	}()
	Lp(0.5)
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dim mismatch")
		}
	}()
	L2(Vector{1}, Vector{1, 2})
}

func TestEuclideanSpaceBound(t *testing.T) {
	s := EuclideanSpace("syn", 100, 0, 100)
	// Paper §4.2: theoretical max distance is 1000.
	if math.Abs(s.Max-1000) > 1e-9 {
		t.Fatalf("Max = %v, want 1000", s.Max)
	}
	if !s.Bounded {
		t.Fatal("euclidean space must be bounded")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEditKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"ACGT", "ACGT", 0},
		{"ACGT", "AGGT", 1},
		{"abc", "cba", 2},
	}
	for _, c := range cases {
		if got := EditInt(c.a, c.b); got != c.want {
			t.Errorf("Edit(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := EditInt(c.b, c.a); got != c.want {
			t.Errorf("Edit(%q,%q) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestEditBounds(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 64 {
			a = a[:64]
		}
		if len(b) > 64 {
			b = b[:64]
		}
		d := EditInt(a, b)
		max := len(a)
		if len(b) > max {
			max = len(b)
		}
		min := len(a) - len(b)
		if min < 0 {
			min = -min
		}
		return d >= min && d <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundTransform(t *testing.T) {
	s := Space[Vector]{Name: "raw", Dist: L2}
	bs := Bound(s)
	if !bs.Bounded || bs.Max != 1 {
		t.Fatalf("bound space = %+v", bs)
	}
	a, b := Vector{0, 0}, Vector{3, 4}
	if got, want := bs.Dist(a, b), 5.0/6.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("bounded dist = %v, want %v", got, want)
	}
	// Order preservation.
	c := Vector{30, 40}
	if !(bs.Dist(a, b) < bs.Dist(a, c)) {
		t.Fatal("bound transform must preserve order")
	}
	// Still a metric (d/(1+d) preserves the triangle inequality).
	checkAxioms(t, "bounded-L2", bs.Dist, func(r *rand.Rand) Vector { return randVec(r, 4) }, vecEq)
}

func TestSpaceValidate(t *testing.T) {
	if err := (Space[Vector]{Name: "", Dist: L2}).Validate(); err == nil {
		t.Fatal("expected error for empty name")
	}
	if err := (Space[Vector]{Name: "x"}).Validate(); err == nil {
		t.Fatal("expected error for nil dist")
	}
	if err := (Space[Vector]{Name: "x", Dist: L2, Bounded: true, Max: 0}).Validate(); err == nil {
		t.Fatal("expected error for zero bound")
	}
	if err := (Space[Vector]{Name: "x", Dist: L2}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases underlying array")
	}
}

func BenchmarkL2Dim100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randVec(rng, 100), randVec(rng, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		L2(x, y)
	}
}

func BenchmarkEdit64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mk := func() string {
		s := make([]byte, 64)
		for i := range s {
			s[i] = "ACGT"[rng.Intn(4)]
		}
		return string(s)
	}
	x, y := mk(), mk()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EditInt(x, y)
	}
}
