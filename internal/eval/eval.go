// Package eval provides the measurement side of the paper's §4.1
// evaluation: exact ground truth by brute-force scan (parallelized
// across cores), the recall metric, and summary statistics used to
// aggregate per-query costs into the figures' data series.
//
//lint:file-allow nogoroutine ground-truth computation runs outside the engine; workers touch disjoint output slots
package eval

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"landmarkdht/internal/metric"
)

// TopK computes, for each query, the ids of the k nearest dataset
// objects under d — the "theoretical results" the paper compares
// against (set X in the recall definition). The scan is embarrassingly
// parallel and is split across workers goroutines (0 = GOMAXPROCS).
func TopK[T any](data []T, queries []T, k int, d metric.Distance[T], workers int) ([][]int32, error) {
	if k <= 0 {
		return nil, fmt.Errorf("eval: k must be positive, got %d", k)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("eval: empty dataset")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([][]int32, len(queries))
	var wg sync.WaitGroup
	next := make(chan int, len(queries))
	for i := range queries {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Bounded max-heap replacement done with a simple sorted
			// insertion buffer — k is small (10 in the paper).
			type cand struct {
				id   int32
				dist float64
			}
			for qi := range next {
				q := queries[qi]
				best := make([]cand, 0, k+1)
				for i := range data {
					dist := d(q, data[i])
					if len(best) == k && dist >= best[k-1].dist {
						continue
					}
					pos := sort.Search(len(best), func(j int) bool {
						if best[j].dist != dist {
							return best[j].dist > dist
						}
						return best[j].id > int32(i)
					})
					best = append(best, cand{})
					copy(best[pos+1:], best[pos:])
					best[pos] = cand{int32(i), dist}
					if len(best) > k {
						best = best[:k]
					}
				}
				ids := make([]int32, len(best))
				for j, c := range best {
					ids[j] = c.id
				}
				out[qi] = ids
			}
		}()
	}
	wg.Wait()
	return out, nil
}

// Recall is the paper's quality metric: |X ∩ Y| / |X| where X is the
// ground-truth id set and Y the retrieved set.
func Recall(truth []int32, got []int32) float64 {
	if len(truth) == 0 {
		return 1
	}
	set := make(map[int32]struct{}, len(truth))
	for _, id := range truth {
		set[id] = struct{}{}
	}
	hit := 0
	for _, id := range got {
		if _, ok := set[id]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// Summary aggregates a sample of float64 observations.
type Summary struct {
	N              int
	Mean, Min, Max float64
	P50, P90, P99  float64
	Sum            float64
}

// Summarize computes a Summary. An empty sample yields the zero value.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	pct := func(p float64) float64 {
		i := int(p * float64(len(s)-1))
		return s[i]
	}
	return Summary{
		N:    len(s),
		Mean: sum / float64(len(s)),
		Min:  s[0],
		Max:  s[len(s)-1],
		P50:  pct(0.50),
		P90:  pct(0.90),
		P99:  pct(0.99),
		Sum:  sum,
	}
}

// Gini computes the Gini coefficient of a non-negative load
// distribution: 0 is perfectly even, →1 is maximally skewed. Used to
// quantify the paper's Figure 4 / Figure 6 load curves in one number.
func Gini(loads []int) float64 {
	n := len(loads)
	if n == 0 {
		return 0
	}
	s := make([]float64, n)
	var total float64
	for i, l := range loads {
		s[i] = float64(l)
		total += s[i]
	}
	if total == 0 {
		return 0
	}
	sort.Float64s(s)
	var cum float64
	for i, x := range s {
		cum += float64(i+1) * x
	}
	return (2*cum)/(float64(n)*total) - float64(n+1)/float64(n)
}
