package core

import (
	"math/rand"
	"testing"
	"time"

	"landmarkdht/internal/metric"
)

// TestCrashDuringQueries injects node crashes while queries are in
// flight: queries must still complete (never hang), losses must be
// visible in DroppedSubqueries, and the system must answer exactly
// again after crashed entries are republished.
func TestCrashDuringQueries(t *testing.T) {
	f := buildFixture(t, 48, 3000, 3, false)
	rng := rand.New(rand.NewSource(13))

	// Schedule a crash wave: every 200ms one random node dies.
	crashed := map[ObjectID]bool{}
	var crashedNodes []*IndexNode
	for i := 0; i < 8; i++ {
		at := time.Duration(i+1) * 200 * time.Millisecond
		f.eng.Schedule(at, func() {
			nodes := f.sys.Nodes()
			victim := nodes[rng.Intn(len(nodes))]
			for _, b := range victim.Snapshot() {
				for _, e := range b.Entries {
					crashed[e.Obj] = true
				}
			}
			crashedNodes = append(crashedNodes, victim)
			if err := f.sys.net.CrashNode(victim.ID()); err != nil {
				t.Errorf("crash: %v", err)
			}
			delete(f.sys.nodes, victim.ID())
			f.sys.net.FixAround(victim.ID())
		})
	}

	// Issue queries concurrently with the crash wave.
	completed := 0
	issued := 0
	for i := 0; i < 40; i++ {
		at := time.Duration(rng.Int63n(int64(2 * time.Second)))
		q := f.data[rng.Intn(len(f.data))]
		center := f.emb.Map(q)
		issued++
		f.eng.Schedule(at, func() {
			// Pick a live source at issue time.
			nodes := f.sys.Nodes()
			src := nodes[rng.Intn(len(nodes))].ID()
			err := f.sys.RangeQuery("test-l2", src, q, center, 10, QueryOpts{}, func(qr *QueryResult) {
				completed++
			})
			if err != nil {
				completed++ // counted as completed-with-error
			}
		})
	}
	f.eng.Run()
	if completed != issued {
		t.Fatalf("%d of %d queries never completed under churn", issued-completed, issued)
	}
	// Entries on crashed nodes are gone until republished; everything
	// else must still be there.
	total := f.sys.TotalEntries()
	if total+len(crashed) != 3000 {
		t.Fatalf("entries: %d live + %d crashed != 3000", total, len(crashed))
	}
	if len(crashed) == 0 {
		t.Skip("crash wave hit only empty nodes")
	}

	// Republish the lost entries (the application-level recovery the
	// paper assumes for index maintenance) and verify exactness.
	var republished []Entry
	for obj := range crashed {
		republished = append(republished, Entry{Obj: obj, Point: f.emb.Map(f.data[obj])})
	}
	if err := f.sys.BulkLoad("test-l2", republished); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		q := f.data[rng.Intn(len(f.data))]
		r := 4 + rng.Float64()*8
		want := f.bruteRange(q, r)
		nodes := f.sys.Nodes()
		src := nodes[rng.Intn(len(nodes))].ID()
		var out *QueryResult
		if err := f.sys.RangeQuery("test-l2", src, q, f.emb.Map(q), r, QueryOpts{}, func(qr *QueryResult) { out = qr }); err != nil {
			t.Fatal(err)
		}
		f.eng.Run()
		if out == nil || len(out.Results) != len(want) {
			t.Fatalf("post-recovery: got %v results, want %d", out, len(want))
		}
	}
}

// TestCrashedQuerierDoesNotHang verifies a query whose source dies
// mid-flight is accounted as dropped, not hung.
func TestCrashedQuerierDoesNotHang(t *testing.T) {
	f := buildFixture(t, 24, 1000, 3, false)
	q := f.data[0]
	center := f.emb.Map(q)
	done := false
	src := f.ids[5]
	if err := f.sys.RangeQuery("test-l2", src, q, center, 30, QueryOpts{TopK: 10}, func(*QueryResult) {
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	// Kill the querier before any result can arrive.
	if err := f.sys.net.CrashNode(src); err != nil {
		t.Fatal(err)
	}
	delete(f.sys.nodes, src)
	f.eng.Run()
	// The query either completed before the crash propagated (if it
	// was answered locally) or its results were dropped; either way the
	// engine drained and nothing deadlocked.
	if !done && f.sys.DroppedSubqueries == 0 {
		t.Fatal("query neither completed nor recorded drops")
	}
}

// TestInsertDuringMigration runs routed publishes concurrently with
// load migrations; no entry may be lost.
func TestInsertDuringMigration(t *testing.T) {
	f := buildFixture(t, 24, 2000, 2, false)
	if err := f.sys.EnableLoadBalancing(LBConfig{Delta: 0, ProbeLevel: 3, Period: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	const extra = 50
	placed := 0
	for i := 0; i < extra; i++ {
		at := time.Duration(rng.Int63n(int64(30 * time.Second)))
		obj := ObjectID(10000 + i)
		v := f.data[rng.Intn(len(f.data))]
		point := f.emb.Map(v)
		f.eng.Schedule(at, func() {
			nodes := f.sys.Nodes()
			src := nodes[rng.Intn(len(nodes))].ID()
			err := f.sys.Publish("test-l2", src, Entry{Obj: obj, Point: point}, func(_ uint64, _ int, err error) {
				if err == nil {
					placed++
				}
			})
			if err != nil {
				t.Errorf("publish: %v", err)
			}
		})
	}
	f.eng.RunUntil(2 * time.Minute)
	f.sys.DisableLoadBalancing()
	f.eng.Run()
	if placed != extra {
		t.Fatalf("placed %d of %d inserts", placed, extra)
	}
	if got := f.sys.TotalEntries(); got != 2000+extra {
		t.Fatalf("entries = %d, want %d", got, 2000+extra)
	}
	_ = metric.L2 // keep the import for the fixture helpers
}
