package landmarkdht

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"landmarkdht/internal/core"
)

// searchAllocsCeiling bounds the heap allocations of one range search
// through the public facade on the simulated runtime. Measured 8 per
// search on go1.24 since a core query takes its records, cubes and
// result slices from a recycled arena (34 before, when each message was
// a record of its own; 46 before that); the ceiling is that + 10 %, and
// still fails when a hot path starts allocating per message or per
// candidate.
const searchAllocsCeiling = 9

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
// messages and ≈ 100 local scans: measured 10 per search on go1.24, +
// 10 %. A core query allocates only its answer — its message records,
// split and refined cubes, result slices and merge maps come from an
// arena recycled when its last holder lets go — and the rest is the
// facade's. This read 512 while every message was a record of its own,
// 1300 while a message was a unit list and two closures, and 4295 while
// surrogate refinement cloned the cube for every zero bit of the node's
// id. TestSearchAllocsCeiling's query sends a handful of messages and
// cannot see per-message work.
const wideSearchAllocsCeiling = 11

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

// TestQueryAllocatesOnlyItsAnswer holds a fault-free core query in
// steady state to its answer: one search through System.RangeQuery at
// the wide search's shape allocates the QueryResult and its Results and
// nothing else — its records, cubes, result slices and merge maps come
// from a recycled query arena. Every query of the set runs once first,
// so the arena and the simulator's pools have grown to the largest.
func TestQueryAllocatesOnlyItsAnswer(t *testing.T) {
	ix, queries := wideSearchFixture(t)
	p := ix.p
	payloads := make([]any, len(queries))
	centers := make([][]float64, len(queries))
	for i, q := range queries {
		payloads[i], centers[i] = q, slices.Clone(ix.mapCenter(q))
	}
	var res *core.QueryResult
	done := func(qr *core.QueryResult) { res = qr }
	search := func(i int) {
		res = nil
		if err := p.sys.RangeQuery(ix.name, p.sys.NodeAt(i%p.Nodes()), payloads[i], centers[i], wideSearchRadius,
			core.QueryOpts{}, done); err != nil {
			t.Fatal(err)
		}
		for res == nil {
			p.rt.Sleep(time.Second)
		}
		if !res.Complete {
			t.Fatalf("query %d: incomplete", i)
		}
	}
	for i := range queries {
		search(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		search(i % len(queries))
		i++
	})
	t.Logf("%.0f allocs per query", allocs)
	if allocs > 2 {
		t.Fatalf("%.0f allocs per query; the answer is 2, the QueryResult and its Results", allocs)
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
