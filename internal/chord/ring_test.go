package chord

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: InOpen and InOpenClosed behave like interval membership
// after rotating the whole ring so that a maps to zero — rotation
// invariance is what makes the §3.4 space-mapping rotation sound.
func TestQuickIntervalRotationInvariance(t *testing.T) {
	f := func(a, x, b, shift ID) bool {
		if InOpen(a, x, b) != InOpen(a+shift, x+shift, b+shift) {
			return false
		}
		return InOpenClosed(a, x, b) == InOpenClosed(a+shift, x+shift, b+shift)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: for a != b, every x is in exactly one of (a, b] and (b, a].
func TestQuickIntervalPartition(t *testing.T) {
	f := func(a, x, b ID) bool {
		if a == b {
			return true
		}
		in1 := InOpenClosed(a, x, b)
		in2 := InOpenClosed(b, x, a)
		return in1 != in2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// Property: InOpen(a,x,b) implies InOpenClosed(a,x,b), and x==b is in
// the half-open but not the open interval.
func TestQuickIntervalInclusion(t *testing.T) {
	f := func(a, x, b ID) bool {
		if InOpen(a, x, b) && !InOpenClosed(a, x, b) {
			return false
		}
		if a != b && !InOpenClosed(a, b, b) {
			return false
		}
		if InOpen(a, b, b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dist(a,b) + Dist(b,a) == 0 mod 2^64 for a != b (the two
// arcs complete the ring), and Dist(a,a) == 0.
func TestQuickDistArcs(t *testing.T) {
	f := func(a, b ID) bool {
		if a == b {
			return Dist(a, b) == 0
		}
		return Dist(a, b)+Dist(b, a) == 0 // wraps to 2^64 ≡ 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}
