// Package landmark implements the landmark-selection schemes of §3.1:
// the greedy max-min method (Algorithm 1) and k-means clustering, plus
// a k-medoids variant usable in metric spaces that have no meaningful
// centroid (e.g. strings under edit distance).
//
// A well-known node runs selection once over a random sample of data
// objects at system initiation; every other node obtains the resulting
// landmark set on join.
package landmark

import (
	"fmt"
	"math/rand"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/metric"
)

// Method names a selection scheme for Select.
type Method int

const (
	// MaxMin is Algorithm 1, Greedy.
	MaxMin Method = iota
	// Centroids is KMeans (50 iterations); it needs a Meaner.
	Centroids
	// Medoids is KMedoids (20 iterations).
	Medoids
)

// Select is the §3.1 procedure a well-known node runs: it draws a
// random sample of up to sampleN objects of data from a source seeded
// with seed, then picks k landmarks from the sample with method, the
// same source driving both. It returns the landmarks and the sample.
// mean may be nil unless method is Centroids.
func Select[T any](method Method, data []T, sampleN, k int, d metric.Distance[T], mean Meaner[T], seed int64) (lms, sample []T, err error) {
	rng := rand.New(rand.NewSource(seed))
	sampleN = min(sampleN, len(data))
	sample = make([]T, sampleN)
	for i, idx := range rng.Perm(len(data))[:sampleN] {
		sample[i] = data[idx]
	}
	switch method {
	case MaxMin:
		lms, err = Greedy(rng, sample, k, d)
	case Centroids:
		if mean == nil {
			return nil, nil, fmt.Errorf("landmark: k-means selection needs a Meaner")
		}
		lms, err = KMeans(rng, sample, k, d, mean, 50)
	case Medoids:
		lms, err = KMedoids(rng, sample, k, d, 20)
	default:
		err = fmt.Errorf("landmark: unknown selection method %d", method)
	}
	if err != nil {
		return nil, nil, err
	}
	return lms, sample, nil
}

// Greedy is Algorithm 1: start from a random sample member, then
// repeatedly move the sample object with the maximum distance to the
// current landmark set (distance of an object to a set being the
// minimum over set members). The selection is O(|sample|·k) distance
// computations thanks to the cached per-object minimum.
func Greedy[T any](rng *rand.Rand, sample []T, k int, d metric.Distance[T]) ([]T, error) {
	if err := checkArgs(len(sample), k, d == nil); err != nil {
		return nil, err
	}
	n := len(sample)
	chosen := make([]bool, n)
	landmarks := make([]T, 0, k)

	first := rng.Intn(n)
	chosen[first] = true
	landmarks = append(landmarks, sample[first])

	// minDist[i] = distance from sample[i] to the landmark set so far.
	minDist := make([]float64, n)
	for i := range sample {
		minDist[i] = d(sample[i], sample[first])
	}
	for len(landmarks) < k {
		best, bestDist := -1, -1.0
		for i := range sample {
			if chosen[i] {
				continue
			}
			if minDist[i] > bestDist {
				best, bestDist = i, minDist[i]
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("landmark: sample exhausted after %d landmarks", len(landmarks))
		}
		chosen[best] = true
		landmarks = append(landmarks, sample[best])
		for i := range sample {
			if chosen[i] {
				continue
			}
			if dd := d(sample[i], sample[best]); dd < minDist[i] {
				minDist[i] = dd
			}
		}
	}
	return landmarks, nil
}

// Meaner computes the centroid of a non-empty group of objects; it is
// the extra structure k-means needs beyond the black-box distance.
type Meaner[T any] func(items []T) T

// KMeans runs Lloyd's algorithm on the sample and returns the k
// cluster centroids as landmarks (§3.1: "clusters the sampled dataset
// S and uses the cluster centroids as landmarks"). Initialization is
// k-means++ style seeding driven by rng; iteration stops at maxIter or
// when assignments stabilize.
func KMeans[T any](rng *rand.Rand, sample []T, k int, d metric.Distance[T], mean Meaner[T], maxIter int) ([]T, error) {
	if err := checkArgs(len(sample), k, d == nil); err != nil {
		return nil, err
	}
	if mean == nil {
		return nil, fmt.Errorf("landmark: KMeans requires a centroid function")
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	n := len(sample)

	// k-means++ seeding.
	centroids := make([]T, 0, k)
	centroids = append(centroids, sample[rng.Intn(n)])
	minDist := make([]float64, n)
	for i := range sample {
		minDist[i] = d(sample[i], centroids[0])
	}
	for len(centroids) < k {
		var total float64
		for _, dd := range minDist {
			total += dd * dd
		}
		var pick int
		if total == 0 {
			pick = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			var acc float64
			for i, dd := range minDist {
				acc += dd * dd
				if acc >= target {
					pick = i
					break
				}
			}
		}
		centroids = append(centroids, sample[pick])
		for i := range sample {
			if dd := d(sample[i], sample[pick]); dd < minDist[i] {
				minDist[i] = dd
			}
		}
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, x := range sample {
			best, bestDist := 0, d(x, centroids[0])
			for c := 1; c < k; c++ {
				if dd := d(x, centroids[c]); dd < bestDist {
					best, bestDist = c, dd
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		groups := make([][]T, k)
		for i, c := range assign {
			groups[c] = append(groups[c], sample[i])
		}
		for c := range centroids {
			if len(groups[c]) == 0 {
				// Re-seed an empty cluster with a random sample point.
				centroids[c] = sample[rng.Intn(n)]
				continue
			}
			centroids[c] = mean(groups[c])
		}
	}
	return centroids, nil
}

// KMedoids is a PAM-style clustering for metric spaces without
// centroids: cluster representatives are sample objects. It supports
// the paper's "arbitrary metric space" claim for spaces like strings
// under edit distance.
func KMedoids[T any](rng *rand.Rand, sample []T, k int, d metric.Distance[T], maxIter int) ([]T, error) {
	if err := checkArgs(len(sample), k, d == nil); err != nil {
		return nil, err
	}
	if maxIter <= 0 {
		maxIter = 20
	}
	n := len(sample)
	medoids := rng.Perm(n)[:k]
	assign := make([]int, n)
	for iter := 0; iter < maxIter; iter++ {
		for i, x := range sample {
			best, bestDist := 0, d(x, sample[medoids[0]])
			for c := 1; c < k; c++ {
				if dd := d(x, sample[medoids[c]]); dd < bestDist {
					best, bestDist = c, dd
				}
			}
			assign[i] = best
		}
		changed := false
		for c := 0; c < k; c++ {
			var members []int
			for i, a := range assign {
				if a == c {
					members = append(members, i)
				}
			}
			if len(members) == 0 {
				continue
			}
			// Pick the member minimizing the sum of distances to the
			// rest of the cluster.
			bestIdx, bestCost := medoids[c], -1.0
			for _, cand := range members {
				var cost float64
				for _, other := range members {
					cost += d(sample[cand], sample[other])
				}
				if bestCost < 0 || cost < bestCost {
					bestIdx, bestCost = cand, cost
				}
			}
			if bestIdx != medoids[c] {
				medoids[c] = bestIdx
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	out := make([]T, k)
	for c, m := range medoids {
		out[c] = sample[m]
	}
	return out, nil
}

// DenseMean is the centroid function for dense vectors.
func DenseMean(items []metric.Vector) metric.Vector {
	if len(items) == 0 {
		panic("landmark: DenseMean of empty group")
	}
	out := make(metric.Vector, len(items[0]))
	for _, v := range items {
		for i := range v {
			out[i] += v[i]
		}
	}
	inv := 1 / float64(len(items))
	for i := range out {
		out[i] *= inv
	}
	return out
}

// SparseMean is the centroid function for sparse term vectors: the
// component-wise average. Averaging documents yields centroid vectors
// with many more terms than any single document — exactly the property
// §4.3 credits for k-means beating greedy on the TREC corpus.
func SparseMean(items []metric.SparseVector) metric.SparseVector {
	if len(items) == 0 {
		panic("landmark: SparseMean of empty group")
	}
	acc := make(map[uint32]float64)
	for _, v := range items {
		for i, idx := range v.Idx {
			acc[idx] += v.Val[i]
		}
	}
	idx := make([]uint32, 0, len(acc))
	val := make([]float64, 0, len(acc))
	inv := 1 / float64(len(items))
	//lint:allow maporder NewSparseVector canonicalizes by sorting on term index
	for i, v := range acc {
		idx = append(idx, i)
		val = append(val, v*inv)
	}
	sv, err := metric.NewSparseVector(idx, val)
	if err != nil {
		panic(err) // unreachable: weights are non-negative averages
	}
	return sv
}

// Boundary derives per-landmark index-space bounds from the selection
// sample (§3.1 "Boundary of index space", approach 2): dimension i is
// bounded by the minimum and maximum distance between landmark i and
// the sampled set. Degenerate dimensions are widened slightly so the
// partitioner accepts them.
func Boundary[T any](landmarks []T, sample []T, d metric.Distance[T]) []lph.Bounds {
	bounds := make([]lph.Bounds, len(landmarks))
	for i, l := range landmarks {
		lo, hi := -1.0, 0.0
		for _, s := range sample {
			dd := d(l, s)
			if lo < 0 || dd < lo {
				lo = dd
			}
			if dd > hi {
				hi = dd
			}
		}
		if lo < 0 {
			lo = 0
		}
		if hi <= lo {
			hi = lo + 1
		}
		bounds[i] = lph.Bounds{Lo: lo, Hi: hi}
	}
	return bounds
}

// Spread reports the minimum pairwise distance within a landmark set —
// the dispersion quality measure from §3.1 ("keep these landmark
// points dispersive").
func Spread[T any](landmarks []T, d metric.Distance[T]) float64 {
	best := -1.0
	for i := range landmarks {
		for j := i + 1; j < len(landmarks); j++ {
			dd := d(landmarks[i], landmarks[j])
			if best < 0 || dd < best {
				best = dd
			}
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

func checkArgs(n, k int, nilDist bool) error {
	if nilDist {
		return fmt.Errorf("landmark: nil distance function")
	}
	if k <= 0 {
		return fmt.Errorf("landmark: k must be positive, got %d", k)
	}
	if n < k {
		return fmt.Errorf("landmark: sample of %d objects cannot yield %d landmarks", n, k)
	}
	return nil
}
