package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"landmarkdht/internal/indexspace"
	"landmarkdht/internal/landmark"
	"landmarkdht/internal/lph"
	"landmarkdht/internal/metric"
	"landmarkdht/internal/query"
)

// scanBenchFixture draws a corpus the way the root package's
// wideSearchFixture (sim-search's shape) does — uniform 8-d vectors in
// [0, 1)⁸ under 6 greedy landmarks — and cuts regions of the given size
// out of it as a ring does: each a run of consecutive ring keys, its
// entries stored in the order a bulk load delivers them (by object, not
// by key). Thirteen regions spread over the key space when the corpus has
// room for them, else the one region that is the whole corpus. The cubes
// are those of radius-0.4 queries drawn like the objects.
func scanBenchFixture(tb testing.TB, objects, rows int) ([]*MemStore, []query.Region) {
	tb.Helper()
	uniform := func(rng *rand.Rand, n int) []metric.Vector {
		out := make([]metric.Vector, n)
		for i := range out {
			out[i] = make(metric.Vector, 8)
			for j := range out[i] {
				out[i][j] = rng.Float64()
			}
		}
		return out
	}
	data := uniform(rand.New(rand.NewSource(1)), objects)
	lms, err := landmark.Greedy(rand.New(rand.NewSource(3)), data[:2000], 6, metric.L2)
	if err != nil {
		tb.Fatal(err)
	}
	emb, err := indexspace.New(metric.EuclideanSpace("wide", 8, 0, 1), lms)
	if err != nil {
		tb.Fatal(err)
	}
	part, err := emb.Partitioner(true)
	if err != nil {
		tb.Fatal(err)
	}
	points, _ := emb.MapBatch(data, nil)
	keys := make([]lph.Key, objects)
	byKey := make([]int, objects)
	for i, p := range points {
		keys[i], byKey[i] = part.Ring(part.Hash(p)), i
	}
	slices.SortFunc(byKey, func(a, b int) int {
		return cmp.Or(cmp.Compare(keys[a], keys[b]), cmp.Compare(a, b))
	})
	regions := 1
	if objects >= 13*rows {
		regions = 13
	}
	stores := make([]*MemStore, regions)
	for r := range stores {
		run := slices.Clone(byKey[r*(objects-rows)/regions:][:rows])
		slices.Sort(run)
		rk, re := make([]lph.Key, rows), make([]Entry, rows)
		for i, obj := range run {
			rk[i], re[i] = keys[obj], Entry{Obj: ObjectID(obj), Point: points[obj]}
		}
		stores[r] = NewMemStore()
		if err := stores[r].PutBatch("wide", rk, re); err != nil {
			tb.Fatal(err)
		}
	}
	var cubes []query.Region
	for _, q := range uniform(rand.New(rand.NewSource(2)), 512) {
		reg, err := query.Around(part, emb.Map(q), 0.4)
		if err != nil {
			tb.Fatal(err)
		}
		cubes = append(cubes, reg)
	}
	return stores, cubes
}

// BenchmarkMemStoreScan times Scan at sim-search's cube width over a
// region of a simulated node's size and one of a netrt member's, and
// reports the rows a scan compared with the cube beside what it
// returned: rows/op against the region size is the share of the linear
// walk that is left.
func BenchmarkMemStoreScan(b *testing.B) {
	for _, c := range []struct{ objects, rows int }{{20000, 300}, {30000, 30000}} {
		b.Run(fmt.Sprintf("rows=%d", c.rows), func(b *testing.B) {
			stores, cubes := scanBenchFixture(b, c.objects, c.rows)
			var buf []Entry
			for _, st := range stores { // build the index, size the buffer
				buf = st.Scan("wide", cubes[0], buf[:0])
			}
			rows := func() (n int) {
				for _, st := range stores {
					n += st.regions["wide"].rowTests
				}
				return n
			}
			rows0 := rows()
			hits := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = stores[i%len(stores)].Scan("wide", cubes[i%len(cubes)], buf[:0])
				hits += len(buf)
			}
			b.StopTimer()
			n := float64(b.N)
			b.ReportMetric(float64(rows()-rows0)/n, "rows/op")
			b.ReportMetric(float64(hits)/n, "hits/op")
		})
	}
}
