package landmarkdht

import "testing"

// searchAllocsCeiling bounds the heap allocations of one range search
// through the public facade on the simulated runtime. Measured 48–49
// per search; the ceiling leaves the 20 % headroom a changed Go
// runtime or a one-off extra buffer needs, and still fails when a hot
// path starts allocating per message or per candidate.
const searchAllocsCeiling = 58

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
