package metric

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestNewL2SlabOnlyForL2 builds a slab for a space whose Dist is L2
// itself over vectors of one nonzero length, and for nothing else.
func TestNewL2SlabOnlyForL2(t *testing.T) {
	vecs := []Vector{{1, 2}, {3, 4}, {5, 6}}
	euclid := EuclideanSpace("e", 2, 0, 10)
	if NewL2Slab(euclid, vecs) == nil {
		t.Fatal("no slab for EuclideanSpace")
	}
	if NewL2Slab(Space[Vector]{Name: "raw", Dist: L2}, vecs) == nil {
		t.Fatal("no slab for a space whose Dist is L2")
	}
	none := map[string]*L2Slab{
		"closure around L2": NewL2Slab(Space[Vector]{Name: "w", Dist: func(a, b Vector) float64 { return L2(a, b) }}, vecs),
		"L1":                NewL2Slab(Space[Vector]{Name: "m", Dist: L1}, vecs),
		"Lp(2)":             NewL2Slab(Space[Vector]{Name: "p", Dist: Lp(2)}, vecs),
		"Bound":             NewL2Slab(Bound(euclid), vecs),
		"nil Dist":          NewL2Slab(Space[Vector]{Name: "n"}, vecs),
		"no objects":        NewL2Slab(euclid, nil),
		"ragged":            NewL2Slab(euclid, []Vector{{1, 2}, {3}}),
		"empty vectors":     NewL2Slab(euclid, []Vector{{}, {}}),
		"not vectors":       NewL2Slab(Space[string]{Name: "s", Dist: Edit}, []string{"a"}),
	}
	for what, s := range none {
		if s != nil {
			t.Errorf("%s: a slab", what)
		}
	}
}

// TestL2SlabRefine holds a slab's batches to L2 per object — the same
// bits and the same hits, ids in any order and with repeats — through
// appends and a truncation, and a query of the wrong length to L2's
// panic.
func TestL2SlabRefine(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const dim = 7
	vecs := make([]Vector, 100)
	for i := range vecs {
		vecs[i] = randVec(rng, dim)
	}
	s := NewL2Slab(EuclideanSpace("e", dim, 0, 1), vecs)
	for i := 0; i < 20; i++ {
		v := randVec(rng, dim)
		vecs = append(vecs, v)
		s.Append(v)
	}
	s.Truncate(110)
	vecs = vecs[:110]
	if s.Len() != 110 {
		t.Fatalf("Len = %d, want 110", s.Len())
	}
	var dist [64]float64
	for n := 0; n <= 64; n++ {
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(rng.Intn(len(vecs)))
		}
		q := randVec(rng, dim)
		hits := s.Refine(q, ids, 150, dist[:n])
		for i, id := range ids {
			want := L2(q, vecs[id])
			if !sameBits(dist[i], want) || (hits>>i&1 == 1) != (want <= 150) {
				t.Fatalf("batch of %d, id %d: %v (hit %v), want %v", n, id, dist[i], hits>>i&1, want)
			}
		}
	}
	defer func() {
		want := fmt.Sprint(catch(func() { L2(Vector{1}, vecs[0]) }))
		if got := fmt.Sprint(recover()); got != want {
			t.Fatalf("a query of the wrong length panicked with %q, want L2's %q", got, want)
		}
	}()
	s.Refine(Vector{1}, []int32{3}, 1, dist[:1])
}

// catch returns what fn panics with.
func catch(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}
