package landmarkdht

import (
	"math/rand"
	"testing"
)

// searchAllocsCeiling bounds the heap allocations of one range search
// through the public facade on the simulated runtime. Measured 34 per
// search on go1.24 since query and result messages are one record each
// (46 before); the ceiling is that + 10 %, and still fails when a hot
// path starts allocating per message or per candidate.
const searchAllocsCeiling = 38

// TestSearchAllocsCeiling pins the allocation cost of the end-to-end
// search path: 64 nodes, 4000 8-d points, 5 landmarks, radius 10,
// querying the data points in order. One warm-up search grows the lazy
// scratch buffers (query center, scan candidates) first.
func TestSearchAllocsCeiling(t *testing.T) {
	p, err := New(Options{Nodes: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := testData(4000, 8, 2)
	ix, err := AddIndex(p, EuclideanSpace("allocs", 8, -100, 200), data, DenseMean,
		IndexOptions{Landmarks: 5, SampleSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.RangeSearch(data[0], 10); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if _, _, err := ix.RangeSearch(data[i%len(data)], 10); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.0f allocs per search (ceiling %d)", allocs, searchAllocsCeiling)
	if allocs > searchAllocsCeiling {
		t.Fatalf("%.0f allocs per search, ceiling %d", allocs, searchAllocsCeiling)
	}
}

// wideSearchAllocsCeiling bounds the allocations of one search at the
// shape of the benchmark's sim-search workload, where a query is ≈ 290
// messages and ≈ 100 local scans: measured 512 per search on go1.24,
// + 10 %. A query or result message is one record and a routing split
// allocates no slice of regions; this read 1300 while a message was a
// unit list and two closures, and 4295 while surrogate refinement
// cloned the cube for every zero bit of the node's id.
// TestSearchAllocsCeiling's query sends a handful of messages and
// cannot see per-message work.
const wideSearchAllocsCeiling = 564

// wideSearchFixture is sim-search's shape (bench/run.go): 256 nodes,
// 20 000 uniform 8-d objects in [0, 1)⁸, 6 landmarks, radius-0.4 queries
// drawn the same way.
func wideSearchFixture(tb testing.TB) (*Index[Vector], []Vector) {
	tb.Helper()
	uniform := func(rng *rand.Rand, n int) []Vector {
		out := make([]Vector, n)
		for i := range out {
			out[i] = make(Vector, 8)
			for j := range out[i] {
				out[i][j] = rng.Float64()
			}
		}
		return out
	}
	p, err := New(Options{Nodes: 256, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(p.Close)
	ix, err := AddIndex(p, EuclideanSpace("wide", 8, 0, 1), uniform(rand.New(rand.NewSource(1)), 20000), nil,
		IndexOptions{Landmarks: 6})
	if err != nil {
		tb.Fatal(err)
	}
	return ix, uniform(rand.New(rand.NewSource(2)), 512)
}

const wideSearchRadius = 0.4

func TestWideSearchAllocsCeiling(t *testing.T) {
	ix, queries := wideSearchFixture(t)
	if _, _, err := ix.RangeSearch(queries[0], wideSearchRadius); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := ix.RangeSearch(queries[i%len(queries)], wideSearchRadius); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.0f allocs per search (ceiling %d)", allocs, wideSearchAllocsCeiling)
	if allocs > wideSearchAllocsCeiling {
		t.Fatalf("%.0f allocs per search, ceiling %d", allocs, wideSearchAllocsCeiling)
	}
}

// BenchmarkRangeSearchWide times the same search loop and reports the
// protocol counts beside it, so a change meant to make a message
// cheaper can show it left the messages alone.
func BenchmarkRangeSearchWide(b *testing.B) {
	ix, queries := wideSearchFixture(b)
	var cands, hops, qmsgs, rmsgs int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := ix.RangeSearch(queries[i%len(queries)], wideSearchRadius)
		if err != nil {
			b.Fatal(err)
		}
		cands += st.Candidates
		hops += st.Hops
		qmsgs += st.QueryMessages
		rmsgs += st.ResultMessages
	}
	n := float64(b.N)
	b.ReportMetric(float64(cands)/n, "cands/op")
	b.ReportMetric(float64(hops)/n, "hops/op")
	b.ReportMetric(float64(qmsgs)/n, "qmsgs/op")
	b.ReportMetric(float64(rmsgs)/n, "rmsgs/op")
}
