package landmarkdht

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	_ "unsafe" // for go:linkname

	"landmarkdht/internal/cpu"
)

// setVector turns the AVX-512 kernels on (where the CPU has them) or
// off and returns whether they were on; see internal/cpu.
//
//go:linkname setVector landmarkdht/internal/cpu.setVector
func setVector(on bool) (was bool)

// checkSearches holds the index's range and nearest-neighbour searches
// to brute force over its objects under dist: the same ids in the same
// order — by distance, then by id — with the same distance bits.
func checkSearches[T any](t *testing.T, ix *Index[T], dist func(a, b T) float64, rng *rand.Rand, radii []float64) {
	t.Helper()
	for trial := 0; trial < 4; trial++ {
		q := ix.Object(rng.Intn(ix.Len()))
		type hit struct {
			id int
			d  float64
		}
		var all []hit
		for id := 0; id < ix.Len(); id++ {
			all = append(all, hit{id, dist(q, ix.Object(id))})
		}
		slices.SortFunc(all, func(a, b hit) int {
			if c := cmp.Compare(a.d, b.d); c != 0 {
				return c
			}
			return cmp.Compare(a.id, b.id)
		})
		same := func(what string, got []Match[T], want []hit) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %d matches, want %d", what, len(got), len(want))
			}
			for i, m := range got {
				if m.ID != want[i].id || math.Float64bits(m.Distance) != math.Float64bits(want[i].d) {
					t.Fatalf("%s: match %d is (%d, %v), want (%d, %v)", what, i, m.ID, m.Distance, want[i].id, want[i].d)
				}
			}
		}
		for _, r := range radii {
			got, _, err := ix.RangeSearch(q, r)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for n < len(all) && all[n].d <= r {
				n++
			}
			same(fmt.Sprintf("range %v", r), got, all[:n])
		}
		got, _, err := ix.NearestSearch(q, 10, ix.MaxDistance())
		if err != nil {
			t.Fatal(err)
		}
		same("nearest 10", got, all[:10])
	}
}

// TestEuclideanBatchRefine: an index over EuclideanSpace refines its
// candidates through the L2 slab, which follows the objects through
// inserts, a rolled-back insert, ReindexWith and RefreshLandmarks, and
// every answer is brute force's to the bit.
func TestEuclideanBatchRefine(t *testing.T) { euclideanBatchRefine(t) }

// TestEuclideanBatchRefinePortable is TestEuclideanBatchRefine with the
// AVX-512 kernels switched off: the slab's batches run L2Rows' portable
// loop on any CPU.
func TestEuclideanBatchRefinePortable(t *testing.T) {
	was := setVector(false)
	defer setVector(was)
	if cpu.AVX512() {
		t.Fatal("the vector kernels are still on after they were turned off")
	}
	euclideanBatchRefine(t)
}

func euclideanBatchRefine(t *testing.T) {
	p, ix, data := buildIndex(t, 900)
	defer p.Close()
	if ix.slab == nil {
		t.Fatal("no L2 slab for an index over EuclideanSpace")
	}
	rng := rand.New(rand.NewSource(32))
	radii := []float64{15, 30}
	slabHolds := func(what string) {
		t.Helper()
		if ix.slab.Len() != ix.Len() {
			t.Fatalf("%s: the slab holds %d objects, the index %d", what, ix.slab.Len(), ix.Len())
		}
		checkSearches(t, ix, L2, rng, radii)
	}
	slabHolds("after AddIndex")

	for i := 0; i < 3; i++ {
		v := make(Vector, 8)
		for j := range v {
			v[j] = 150 + rng.Float64()*10 // away from the clusters, near each other
		}
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	slabHolds("after Insert")
	got, _, err := ix.RangeSearch(ix.Object(901), 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 3 {
		t.Fatalf("a search around the inserted objects found %d of them", len(got))
	}

	if err := ix.ReindexWith([]Vector{data[1], data[100], data[500]}, nil); err != nil {
		t.Fatal(err)
	}
	slabHolds("after ReindexWith")

	// A threshold of -1 adopts any set whose spread is positive.
	if adopted, err := ix.RefreshLandmarks(-1); err != nil || !adopted {
		t.Fatalf("RefreshLandmarks(-1) = %v, %v", adopted, err)
	}
	slabHolds("after RefreshLandmarks")

	// A query of the wrong length panics, as L2 does.
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "dimension mismatch") {
				t.Fatalf("a 3-coordinate query in an 8-dimensional index: recovered %v", r)
			}
		}()
		ix.RangeSearch(make(Vector, 3), 10)
	}()

	// An insert that never lands leaves the slab as it was.
	lossy, err := New(Options{Nodes: 48, Seed: 1, LossRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lossy.Close()
	lix, err := AddIndex(lossy, EuclideanSpace("vecs", 8, -100, 200), testData(100, 8, 2), DenseMean,
		IndexOptions{Landmarks: 4, SampleSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lix.Insert(make(Vector, 8)); err == nil {
		t.Fatal("an insert whose every message is dropped succeeded")
	}
	if lix.Len() != 100 || lix.slab.Len() != 100 {
		t.Fatalf("the failed insert left %d objects and %d slab rows, want 100", lix.Len(), lix.slab.Len())
	}
}

// TestBatchRefineFallsBack: a space whose Dist is not L2 itself — a
// closure around L2, L1, L2 under Bound — gets no slab, and its
// searches still answer exactly through Dist.
func TestBatchRefineFallsBack(t *testing.T) {
	euclid := EuclideanSpace("vecs", 8, -100, 200)
	cases := []struct {
		space Space[Vector]
		radii []float64
	}{
		{Space[Vector]{Name: "wrapped", Dist: func(a, b Vector) float64 { return L2(a, b) }, Bounded: true, Max: euclid.Max}, []float64{15, 30}},
		{Space[Vector]{Name: "manhattan", Dist: L1, Bounded: true, Max: 8 * 300}, []float64{40, 80}},
		{Bound(euclid), []float64{15.0 / 16, 30.0 / 31}},
	}
	for _, c := range cases {
		space := c.space
		t.Run(space.Name, func(t *testing.T) {
			p, err := New(Options{Nodes: 32, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			ix, err := AddIndex(p, space, testData(500, 8, 2), DenseMean,
				IndexOptions{Landmarks: 4, SampleSize: 200})
			if err != nil {
				t.Fatal(err)
			}
			if ix.slab != nil {
				t.Fatal("an L2 slab for a space whose Dist is not L2")
			}
			checkSearches(t, ix, space.Dist, rand.New(rand.NewSource(5)), c.radii)
		})
	}
}
