package landmarkdht

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestResilienceInvisibleWithoutFaults runs the same seed and workload
// twice, plain and with deadlines, hedging and retries armed, and
// requires every resilient result Complete, with no hedge or drop, and
// identical (order-normalized, to the bit) to the plain run: with no
// faults to provoke it, the resilience machinery must not change a
// single result.
func TestResilienceInvisibleWithoutFaults(t *testing.T) {
	const (
		nodes = 32
		dim   = 6
		seed  = 1
	)
	data := testData(1000, dim, 5)

	type norm struct {
		ids   []int
		dists []float64
	}
	run := func(resilient bool) []norm {
		t.Helper()
		opts := Options{Nodes: nodes, Seed: seed, WireCodec: true}
		if resilient {
			opts.Retry = RetryConfig{MaxRetries: 3}
			opts.Deadline = 30 * time.Second
			opts.Hedge = HedgeConfig{Delay: 5 * time.Second}
		}
		p, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		ix, err := AddIndex(p, EuclideanSpace("xr", dim, -100, 200), data, DenseMean,
			IndexOptions{Landmarks: 4, SampleSize: 250})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(77))
		var out []norm
		for trial := 0; trial < 12; trial++ {
			q := data[rng.Intn(len(data))]
			var matches []Match[Vector]
			var st SearchStats
			if trial%2 == 0 {
				matches, st, err = ix.RangeSearch(q, 5+rng.Float64()*10)
			} else {
				matches, st, err = ix.NearestSearch(q, 8, 25)
			}
			if err != nil {
				t.Fatalf("trial %d (resilient=%v): %v", trial, resilient, err)
			}
			if resilient {
				if !st.Complete {
					t.Fatalf("trial %d: fault-free resilient query not Complete", trial)
				}
				if st.Hedges != 0 || st.DroppedSubqueries != 0 {
					t.Fatalf("trial %d: fault-free resilient query hedged (%d) or dropped (%d)",
						trial, st.Hedges, st.DroppedSubqueries)
				}
			}
			sort.Slice(matches, func(a, b int) bool { return matches[a].ID < matches[b].ID })
			n := norm{ids: make([]int, len(matches)), dists: make([]float64, len(matches))}
			for i, m := range matches {
				n.ids[i], n.dists[i] = m.ID, m.Distance
			}
			out = append(out, n)
		}
		return out
	}

	plain, resilient := run(false), run(true)
	for trial := range plain {
		s, r := plain[trial], resilient[trial]
		if len(s.ids) != len(r.ids) {
			t.Fatalf("trial %d: plain returned %d matches, resilient %d", trial, len(s.ids), len(r.ids))
		}
		for i := range s.ids {
			if s.ids[i] != r.ids[i] {
				t.Fatalf("trial %d: result sets differ at rank %d: plain id %d, resilient id %d",
					trial, i, s.ids[i], r.ids[i])
			}
			if s.dists[i] != r.dists[i] {
				t.Fatalf("trial %d: distance for id %d differs: plain %v, resilient %v",
					trial, s.ids[i], s.dists[i], r.dists[i])
			}
		}
	}
}
