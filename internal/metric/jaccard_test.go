package metric

import (
	"math/rand"
	"testing"
)

func TestNewIDSet(t *testing.T) {
	s := NewIDSet(5, 1, 5, 3, 1)
	if len(s) != 3 || s[0] != 1 || s[1] != 3 || s[2] != 5 {
		t.Fatalf("set = %v", s)
	}
	if NewIDSet() != nil {
		t.Fatal("empty set should be nil")
	}
}

func TestJaccardKnown(t *testing.T) {
	a := NewIDSet(1, 2, 3)
	b := NewIDSet(2, 3, 4)
	// |∩|=2, |∪|=4 → 1 - 0.5 = 0.5.
	if got := Jaccard(a, b); got != 0.5 {
		t.Fatalf("jaccard = %v", got)
	}
	if Jaccard(a, a) != 0 {
		t.Fatal("self distance")
	}
	if Jaccard(a, nil) != 1 {
		t.Fatal("disjoint-with-empty distance")
	}
	if Jaccard(nil, nil) != 0 {
		t.Fatal("empty-empty distance")
	}
	if Jaccard(NewIDSet(1), NewIDSet(2)) != 1 {
		t.Fatal("disjoint distance")
	}
}

func TestJaccardAxioms(t *testing.T) {
	gen := func(r *rand.Rand) IDSet {
		n := r.Intn(12)
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = uint32(r.Intn(20))
		}
		return NewIDSet(ids...)
	}
	eq := func(a, b IDSet) bool {
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
	checkAxioms(t, "Jaccard", Jaccard, gen, eq)
}

func TestJaccardSpace(t *testing.T) {
	s := JaccardSpace("tags")
	if !s.Bounded || s.Max != 1 {
		t.Fatalf("space = %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
