package metric

import (
	"fmt"
	"math"
)

// Vector is a dense point in a d-dimensional real vector space.
type Vector []float64

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// L2 is the Euclidean distance, the metric used by the paper's
// synthetic-dataset experiments (§4.2). Its bits are the same on every
// architecture: each square is rounded before it is added (the explicit
// conversion forbids the fused multiply-add the Go spec otherwise
// allows, and arm64's compiler emits), so a client on one architecture
// brute-forces the answer a ring on another returns, and L2Rows, which
// adds the same squares in the same order, agrees with it to the bit.
func L2(a, b Vector) float64 {
	mustSameDim(a, b)
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += float64(d * d)
	}
	return math.Sqrt(sum)
}

// L1 is the Hamilton (Manhattan) distance from the paper's footnote 1.
func L1(a, b Vector) float64 {
	mustSameDim(a, b)
	var sum float64
	for i := range a {
		sum += math.Abs(a[i] - b[i])
	}
	return sum
}

// LInf is the Chebyshev distance (the limit of L_k as k grows).
func LInf(a, b Vector) float64 {
	mustSameDim(a, b)
	var max float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > max {
			max = d
		}
	}
	return max
}

// Lp returns the Minkowski L_k distance for k >= 1, the general form
// of the paper's footnote 1.
func Lp(k float64) Distance[Vector] {
	if k < 1 {
		panic(fmt.Sprintf("metric: Lp requires k >= 1, got %v", k))
	}
	return func(a, b Vector) float64 {
		mustSameDim(a, b)
		var sum float64
		for i := range a {
			sum += math.Pow(math.Abs(a[i]-b[i]), k)
		}
		return math.Pow(sum, 1/k)
	}
}

// EuclideanSpace returns a Space over dim-dimensional vectors whose
// coordinates lie in [lo, hi], with the exact theoretical maximum
// distance as the bound — mirroring §4.2 where the bound for 100
// dimensions in [0,100] is sqrt(100·100²) = 1000.
func EuclideanSpace(name string, dim int, lo, hi float64) Space[Vector] {
	if dim <= 0 || hi <= lo {
		panic(fmt.Sprintf("metric: invalid euclidean space dim=%d range=[%v,%v]", dim, lo, hi))
	}
	return Space[Vector]{
		Name:    name,
		Dist:    L2,
		Bounded: true,
		Max:     math.Sqrt(float64(dim)) * (hi - lo),
	}
}

func mustSameDim(a, b Vector) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metric: dimension mismatch %d vs %d", len(a), len(b)))
	}
}
