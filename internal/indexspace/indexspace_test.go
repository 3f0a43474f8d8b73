package indexspace

import (
	"math"
	"math/rand"
	"testing"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/metric"
	"landmarkdht/internal/query"
)

func testSpace() metric.Space[metric.Vector] {
	return metric.EuclideanSpace("test", 2, 0, 10)
}

func randVecIn(rng *rand.Rand, dim int, lo, hi float64) metric.Vector {
	v := make(metric.Vector, dim)
	for i := range v {
		v[i] = lo + rng.Float64()*(hi-lo)
	}
	return v
}

func TestNewValidation(t *testing.T) {
	if _, err := New(testSpace(), nil); err == nil {
		t.Fatal("expected error for no landmarks")
	}
	bad := metric.Space[metric.Vector]{Name: "", Dist: metric.L2}
	if _, err := New(bad, []metric.Vector{{0, 0}}); err == nil {
		t.Fatal("expected error for invalid space")
	}
	unbounded := metric.Space[metric.Vector]{Name: "u", Dist: metric.L2}
	if _, err := New(unbounded, []metric.Vector{{0, 0}}); err == nil {
		t.Fatal("expected error for unbounded metric without sample")
	}
	// Bounded wrapper fixes it.
	if _, err := New(metric.Bound(unbounded), []metric.Vector{{0, 0}}); err != nil {
		t.Fatal(err)
	}
	// Sample boundary fixes it too.
	if _, err := New(unbounded, []metric.Vector{{0, 0}}, WithSampleBoundary([]metric.Vector{{1, 1}, {2, 2}})); err != nil {
		t.Fatal(err)
	}
}

func TestMapCoordinates(t *testing.T) {
	lms := []metric.Vector{{0, 0}, {10, 0}}
	e, err := New(testSpace(), lms)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Map(metric.Vector{3, 4})
	if got[0] != 5 {
		t.Fatalf("coord 0 = %v, want 5", got[0])
	}
	want1 := math.Sqrt(49 + 16)
	if math.Abs(got[1]-want1) > 1e-12 {
		t.Fatalf("coord 1 = %v, want %v", got[1], want1)
	}
	if e.K() != 2 {
		t.Fatalf("K = %d", e.K())
	}
}

// queryCube is the cube every query over e starts from: query.Around
// the mapped query object, on e's unrotated partitioner.
func queryCube[T any](t *testing.T, e *Embedding[T], q T, r float64) []lph.Bounds {
	t.Helper()
	p, err := e.Partitioner(false)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := query.Around(p, e.Map(q), r)
	if err != nil {
		t.Fatal(err)
	}
	return reg.Cube
}

// The core correctness property of the whole architecture (§3.1): the
// mapping is contractive under L∞, so every true near neighbor of q
// falls inside the query cube. No false negatives, ever.
func TestContractiveNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lms := []metric.Vector{{1, 1}, {9, 2}, {5, 8}}
	e, err := New(testSpace(), lms)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		q := randVecIn(rng, 2, 0, 10)
		x := randVecIn(rng, 2, 0, 10)
		r := rng.Float64() * 5
		if metric.L2(q, x) > r {
			continue
		}
		cube := queryCube(t, e, q, r)
		ix := e.Map(x)
		for dim := range ix {
			v := ix[dim]
			// Clamp as the hash would.
			v = e.Bounds()[dim].Clamp(v)
			if v < cube[dim].Lo || v > cube[dim].Hi {
				t.Fatalf("false negative: object at distance %v escaped the cube on dim %d (v=%v cube=%+v)",
					metric.L2(q, x), dim, v, cube[dim])
			}
		}
	}
}

// Contractivity in the formal sense: |Map(x)_i - Map(y)_i| <= d(x,y).
func TestContractivePerCoordinate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lms := []metric.Vector{{1, 1}, {9, 2}, {5, 8}}
	e, _ := New(testSpace(), lms)
	for trial := 0; trial < 500; trial++ {
		x := randVecIn(rng, 2, 0, 10)
		y := randVecIn(rng, 2, 0, 10)
		d := metric.L2(x, y)
		ix, iy := e.Map(x), e.Map(y)
		for dim := range ix {
			if math.Abs(ix[dim]-iy[dim]) > d+1e-9 {
				t.Fatalf("not contractive: |%v - %v| > %v", ix[dim], iy[dim], d)
			}
		}
	}
}

func TestSampleBoundary(t *testing.T) {
	lms := []metric.Vector{{0, 0}}
	sample := []metric.Vector{{3, 4}, {6, 8}}
	e, err := New(testSpace(), lms, WithSampleBoundary(sample))
	if err != nil {
		t.Fatal(err)
	}
	b := e.Bounds()
	if b[0].Lo != 5 || b[0].Hi != 10 {
		t.Fatalf("sample boundary = %+v, want [5,10]", b[0])
	}
}

func TestPartitionerRotation(t *testing.T) {
	e, _ := New(testSpace(), []metric.Vector{{0, 0}, {10, 10}})
	p1, err := e.Partitioner(true)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Phi() != lph.PhiForName("test") {
		t.Fatalf("phi = %d, want PhiForName(test)", p1.Phi())
	}
	p0, _ := e.Partitioner(false)
	if p0.Phi() != 0 {
		t.Fatalf("unrotated phi = %d", p0.Phi())
	}
	if p1.K() != 2 {
		t.Fatalf("K = %d", p1.K())
	}
}

func TestBoundsAreCopies(t *testing.T) {
	e, _ := New(testSpace(), []metric.Vector{{0, 0}})
	b := e.Bounds()
	b[0].Lo = 99
	if e.Bounds()[0].Lo == 99 {
		t.Fatal("Bounds leaked internal state")
	}
}

func TestEmbeddingWithEditDistance(t *testing.T) {
	// "Arbitrary metric space" claim: strings under edit distance.
	space := metric.EditSpace("dna", 8)
	lms := []string{"AAAAAAAA", "GGGGGGGG"}
	e, err := New(space, lms)
	if err != nil {
		t.Fatal(err)
	}
	im := e.Map("AAAAGGGG")
	if im[0] != 4 || im[1] != 4 {
		t.Fatalf("image = %v, want [4 4]", im)
	}
	cube := queryCube(t, e, "AAAAAAAT", 1)
	// The image of AAAAAAAA (distance 1) must lie inside the cube.
	img := e.Map("AAAAAAAA")
	for i := range img {
		if img[i] < cube[i].Lo || img[i] > cube[i].Hi {
			t.Fatalf("dim %d: %v outside %+v", i, img[i], cube[i])
		}
	}
}
