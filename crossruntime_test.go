package landmarkdht

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestCrossRuntimeEquivalence runs the same seed and workload once over
// the simulated runtime and once over the live concurrent runtime and
// requires identical result sets (order-normalized). Both modes are
// exact — landmark pruning plus refinement, with the same wire
// quantization — so any divergence means one runtime dropped, doubled,
// or corrupted a message. The test only runs under -race (the CI
// live-race step): its point is putting the live runtime's
// goroutines under the detector, not re-checking search correctness.
func TestCrossRuntimeEquivalence(t *testing.T) {
	if !raceDetectorEnabled {
		t.Skip("cross-runtime equivalence runs under -race; see the live-race CI step")
	}
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
	run := func(live, resilient bool) []norm {
		t.Helper()
		opts := Options{Nodes: nodes, Seed: seed, WireCodec: true, Live: live}
		if resilient {
			// Deadlines, hedging and retries armed but never provoked
			// (no faults): the resilience machinery must be invisible —
			// every result Complete, result sets identical to the plain
			// run on both runtimes.
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
				t.Fatalf("trial %d (live=%v): %v", trial, live, err)
			}
			if resilient {
				if !st.Complete {
					t.Fatalf("trial %d (live=%v): fault-free resilient query not Complete", trial, live)
				}
				if st.Hedges != 0 || st.DroppedSubqueries != 0 {
					t.Fatalf("trial %d (live=%v): fault-free resilient query hedged (%d) or dropped (%d)",
						trial, live, st.Hedges, st.DroppedSubqueries)
				}
			}
			n := norm{ids: make([]int, len(matches)), dists: make([]float64, len(matches))}
			order := make([]int, len(matches))
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool { return matches[order[a]].ID < matches[order[b]].ID })
			for i, j := range order {
				n.ids[i] = matches[j].ID
				n.dists[i] = matches[j].Distance
			}
			out = append(out, n)
		}
		return out
	}

	compare := func(phase string, sim, liv []norm) {
		t.Helper()
		for trial := range sim {
			s, l := sim[trial], liv[trial]
			if len(s.ids) != len(l.ids) {
				t.Fatalf("%s trial %d: sim returned %d matches, live %d", phase, trial, len(s.ids), len(l.ids))
			}
			for i := range s.ids {
				if s.ids[i] != l.ids[i] {
					t.Fatalf("%s trial %d: result sets differ at rank %d: sim id %d, live id %d",
						phase, trial, i, s.ids[i], l.ids[i])
				}
				if s.dists[i] != l.dists[i] {
					t.Fatalf("%s trial %d: distance for id %d differs: sim %v, live %v",
						phase, trial, s.ids[i], s.dists[i], l.dists[i])
				}
			}
		}
	}

	sim := run(false, false)
	liv := run(true, false)
	compare("plain", sim, liv)
	// Same workload with the resilience machinery armed: with no faults
	// to provoke it, the hedge/deadline timers must not change a single
	// result on either runtime.
	simR := run(false, true)
	livR := run(true, true)
	compare("resilient", simR, livR)
	compare("plain-vs-resilient", sim, simR)
}
