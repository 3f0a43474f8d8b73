package landmarkdht

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

func testData(n, dim int, seed int64) []Vector {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]Vector, 4)
	for i := range centers {
		c := make(Vector, dim)
		for j := range c {
			c[j] = rng.Float64() * 100
		}
		centers[i] = c
	}
	out := make([]Vector, n)
	for i := range out {
		c := centers[rng.Intn(4)]
		v := make(Vector, dim)
		for j := range v {
			v[j] = c[j] + rng.NormFloat64()*5
		}
		out[i] = v
	}
	return out
}

func buildIndex(t *testing.T, n int) (*Platform, *Index[Vector], []Vector) {
	t.Helper()
	p, err := New(Options{Nodes: 48, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := testData(n, 8, 2)
	ix, err := AddIndex(p, EuclideanSpace("vecs", 8, -100, 200), data, DenseMean,
		IndexOptions{Landmarks: 4, SampleSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	return p, ix, data
}

func TestNewPlatform(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes() != 128 {
		t.Fatalf("default nodes = %d", p.Nodes())
	}
	if len(p.Indexes()) != 0 {
		t.Fatal("fresh platform has indexes")
	}
}

// TestNewRejectsTransportFaults: an in-process platform has no
// transport for FrameDrop/KillConn to act on, and says so instead of
// ignoring them; the overlay-level fields stay accepted.
func TestNewRejectsTransportFaults(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults FaultOptions
		ok     bool
	}{
		{"drop only", FaultOptions{Drop: 0.1}, true},
		{"frame drop", FaultOptions{Drop: 0.1, FrameDrop: 0.02}, false},
		{"conn kill", FaultOptions{KillConn: 0.002}, false},
	} {
		faults := tc.faults
		p, err := New(Options{Nodes: 8, Faults: &faults})
		if p != nil {
			p.Close()
		}
		if tc.ok != (err == nil) {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "NodeOptions.Faults") {
			t.Errorf("%s: error %q does not point at NodeOptions.Faults", tc.name, err)
		}
	}
}

func TestAddIndexValidation(t *testing.T) {
	p, _ := New(Options{Nodes: 8})
	if _, err := AddIndex(p, EuclideanSpace("x", 2, 0, 1), nil, DenseMean, IndexOptions{}); err == nil {
		t.Fatal("expected error for empty dataset")
	}
	bad := Space[Vector]{Name: "", Dist: L2}
	if _, err := AddIndex(p, bad, testData(10, 2, 1), DenseMean, IndexOptions{}); err == nil {
		t.Fatal("expected error for invalid space")
	}
	if _, err := AddIndex(p, EuclideanSpace("x", 8, 0, 1), testData(3, 8, 1), DenseMean,
		IndexOptions{Landmarks: 10}); err == nil {
		t.Fatal("expected error for landmarks > objects")
	}
	if _, err := AddIndex(p, EuclideanSpace("x", 8, 0, 100), testData(50, 8, 1), nil,
		IndexOptions{Selection: KMeansSelection}); err == nil {
		t.Fatal("expected error for kmeans without meaner")
	}
	if _, err := AddIndex(p, EuclideanSpace("x", 8, 0, 100), testData(50, 8, 1), nil,
		IndexOptions{Selection: "bogus"}); err == nil {
		t.Fatal("expected error for unknown selection")
	}
}

func TestRangeSearchExact(t *testing.T) {
	_, ix, data := buildIndex(t, 1500)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		q := data[rng.Intn(len(data))]
		r := 5 + rng.Float64()*10
		matches, stats, err := ix.RangeSearch(q, r)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force.
		want := 0
		for _, v := range data {
			if L2(q, v) <= r {
				want++
			}
		}
		if len(matches) != want {
			t.Fatalf("trial %d: got %d matches, want %d", trial, len(matches), want)
		}
		for i, m := range matches {
			if m.Distance > r+1e-9 {
				t.Fatalf("match beyond range: %v > %v", m.Distance, r)
			}
			if i > 0 && m.Distance < matches[i-1].Distance {
				t.Fatal("matches not sorted")
			}
			if L2(q, m.Object) != m.Distance {
				t.Fatal("reported distance mismatch")
			}
		}
		if stats.MaxLatency < stats.ResponseTime {
			t.Fatal("stats inconsistent")
		}
	}
}

func TestNearestSearch(t *testing.T) {
	_, ix, data := buildIndex(t, 1500)
	q := data[7]
	matches, stats, err := ix.NearestSearch(q, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 10 {
		t.Fatalf("got %d matches", len(matches))
	}
	if matches[0].Distance != 0 {
		t.Fatalf("nearest to a dataset point should be itself, got %v", matches[0].Distance)
	}
	if stats.IndexNodes < 1 || stats.Candidates < 10 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestNearestKExact(t *testing.T) {
	_, ix, data := buildIndex(t, 1200)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		q := data[rng.Intn(len(data))]
		matches, _, err := ix.NearestK(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 5 {
			t.Fatalf("got %d", len(matches))
		}
		// Brute-force the true 5 nearest distances.
		ds := make([]float64, len(data))
		for i, v := range data {
			ds[i] = L2(q, v)
		}
		sort.Float64s(ds)
		for i, m := range matches {
			if m.Distance != ds[i] {
				t.Fatalf("rank %d: got distance %v, want %v", i, m.Distance, ds[i])
			}
		}
	}
}

func TestInsertThenSearch(t *testing.T) {
	_, ix, _ := buildIndex(t, 400)
	novel := make(Vector, 8)
	for i := range novel {
		novel[i] = 160 // outside the clusters but inside bounds
	}
	id, err := ix.Insert(novel)
	if err != nil {
		t.Fatal(err)
	}
	if id != 400 {
		t.Fatalf("id = %d", id)
	}
	matches, _, err := ix.RangeSearch(novel, 1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted object not found")
	}
	if ix.Len() != 401 {
		t.Fatalf("len = %d", ix.Len())
	}
}

// TestInsertRollsBackWhenNeverPlaced: an insert whose publish is lost
// (every message dropped, no reliability layer) gives up after the
// platform's bound of simulated time and leaves the index as it was —
// the id it would have had goes to the next insert that lands.
func TestInsertRollsBackWhenNeverPlaced(t *testing.T) {
	// Without Retry the overlay places a lost entry at its current owner
	// (lostPublish); with it, an entry whose every attempt is lost is
	// given up.
	p, err := New(Options{Nodes: 48, Seed: 1, Faults: &FaultOptions{Drop: 1}, Retry: RetryConfig{MaxRetries: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ix, err := AddIndex(p, EuclideanSpace("vecs", 8, -100, 200), testData(100, 8, 2), DenseMean,
		IndexOptions{Landmarks: 4, SampleSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(make(Vector, 8)); err == nil {
		t.Fatal("an insert whose every message is dropped succeeded")
	}
	if ix.Len() != 100 {
		t.Fatalf("the failed insert left %d objects, want 100", ix.Len())
	}
}

// TestInsertLostLookup runs 40 inserts at 20 % loss, where many a
// publish loses its lookup or its entry message, without and with
// Retry. No insert may wait out opTimeout: one that fails returns
// within its retry budget of simulated time, and one that succeeds is
// found by a later Complete search.
func TestInsertLostLookup(t *testing.T) {
	for _, retry := range []RetryConfig{{}, {MaxRetries: 2}} {
		t.Run(fmt.Sprintf("retries=%d", retry.MaxRetries), func(t *testing.T) {
			p, err := New(Options{Nodes: 48, Seed: 1, Faults: &FaultOptions{Drop: 0.2}, Retry: retry})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			ix, err := AddIndex(p, EuclideanSpace("vecs", 8, -100, 200), testData(100, 8, 2), DenseMean,
				IndexOptions{Landmarks: 4, SampleSize: 100})
			if err != nil {
				t.Fatal(err)
			}
			// Every attempt's timeout, the lookup's hops and Await's
			// whole-second steps.
			budget := 2 * time.Second
			for a, d := 0, time.Second; a <= retry.MaxRetries; a, d = a+1, 2*d {
				budget += d
			}
			var placed []int
			failed := 0
			for i, v := range testData(40, 8, 3) {
				start := p.rt.Now()
				id, err := ix.Insert(v)
				took := p.rt.Now() - start
				if took >= opTimeout {
					t.Fatalf("insert %d waited out the %v timeout", i, opTimeout)
				}
				if err != nil {
					failed++
					if took > budget {
						t.Errorf("insert %d failed after %v, budget %v", i, took, budget)
					}
					continue
				}
				placed = append(placed, id)
			}
			t.Logf("%d of 40 inserts placed", len(placed))
			if retry.MaxRetries > 0 && failed == 0 {
				t.Error("no insert failed: the loss never exhausted a retry budget")
			}
			for _, id := range placed {
				found := false
				for try := 0; try < 100 && !found; try++ {
					matches, st, err := ix.RangeSearch(ix.Object(id), 0)
					if err != nil {
						t.Fatal(err)
					}
					if !st.Complete {
						continue
					}
					for _, m := range matches {
						found = found || m.ID == id
					}
					if !found {
						t.Fatalf("inserted object %d missing from a Complete search", id)
					}
				}
				if !found {
					t.Fatalf("no Complete search for object %d in 100 tries", id)
				}
			}
		})
	}
}

func TestMultipleIndexesOnePlatform(t *testing.T) {
	p, err := New(Options{Nodes: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	vecs := testData(300, 4, 3)
	ix1, err := AddIndex(p, EuclideanSpace("vectors", 4, -100, 200), vecs, DenseMean,
		IndexOptions{Landmarks: 3, SampleSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"GATTACA", "GATTACC", "CATTACA", "TTTTTTT", "AAAAAAA", "GGGGGGG", "GATCACA", "AATTACA"}
	ix2, err := AddIndex(p, EditSpace("strings", 8), words, nil,
		IndexOptions{Landmarks: 2, SampleSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Indexes(); len(got) != 2 {
		t.Fatalf("indexes = %v", got)
	}
	if _, _, err := ix1.RangeSearch(vecs[0], 10); err != nil {
		t.Fatal(err)
	}
	matches, _, err := ix2.RangeSearch("GATTACA", 1)
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, m := range matches {
		found = append(found, m.Object)
	}
	// Edit distance <= 1 from GATTACA: itself, GATTACC, CATTACA, GATCACA(2? G-A-T-C-A-C-A vs G-A-T-T-A-C-A: sub at pos 4 => 1), AATTACA (1).
	if len(found) < 4 {
		t.Fatalf("edit-distance search found %v", found)
	}
	for _, m := range matches {
		if Edit("GATTACA", m.Object) > 1 {
			t.Fatalf("false positive %q", m.Object)
		}
	}
}

func TestLoadBalancingAPI(t *testing.T) {
	p, ix, data := buildIndex(t, 2000)
	loadsBefore := p.Loads()
	if err := p.EnableLoadBalancing(LBConfig{Delta: 0, ProbeLevel: 3, Period: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := p.EnableLoadBalancing(LBConfig{}); err == nil {
		t.Fatal("expected error enabling twice")
	}
	p.Run(2 * time.Minute)
	done, _ := p.Migrations()
	if done == 0 {
		t.Fatal("no migrations on skewed data")
	}
	loadsAfter := p.Loads()
	if loadsAfter[0] > loadsBefore[0] {
		t.Fatalf("max load grew: %d -> %d", loadsBefore[0], loadsAfter[0])
	}
	p.DisableLoadBalancing()
	// Searching still works and is exact after the system settles.
	p.Run(time.Minute)
	q := data[3]
	matches, _, err := ix.RangeSearch(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, v := range data {
		if L2(q, v) <= 8 {
			want++
		}
	}
	if len(matches) != want {
		t.Fatalf("post-LB search: got %d, want %d", len(matches), want)
	}
}

func TestTrafficAccounting(t *testing.T) {
	p, ix, data := buildIndex(t, 300)
	before := p.Traffic()
	if _, _, err := ix.RangeSearch(data[0], 10); err != nil {
		t.Fatal(err)
	}
	after := p.Traffic()
	if after.Messages <= before.Messages || after.Bytes <= before.Bytes {
		t.Fatal("traffic not recorded")
	}
}

func TestNearestKValidation(t *testing.T) {
	_, ix, _ := buildIndex(t, 100)
	if _, _, err := ix.NearestK(ix.Object(0), 0); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, _, err := ix.NearestSearch(ix.Object(0), 0, 1); err == nil {
		t.Fatal("expected error for k=0")
	}
}

func TestBoundaryFromSampleUnboundedMetric(t *testing.T) {
	p, _ := New(Options{Nodes: 16, Seed: 4})
	data := testData(200, 4, 9)
	unbounded := Space[Vector]{Name: "raw", Dist: L2}
	ix, err := AddIndex(p, unbounded, data, DenseMean,
		IndexOptions{Landmarks: 3, SampleSize: 100, BoundaryFromSample: true})
	if err != nil {
		t.Fatal(err)
	}
	if ix.MaxDistance() <= 0 {
		t.Fatal("no max distance derived from sample")
	}
	if _, _, err := ix.RangeSearch(data[0], 5); err != nil {
		t.Fatal(err)
	}
	// Without the sample boundary the same space must be rejected.
	if _, err := AddIndex(p, Space[Vector]{Name: "raw2", Dist: L2}, data, DenseMean,
		IndexOptions{Landmarks: 3}); err == nil {
		t.Fatal("expected error for unbounded metric without sample boundary")
	}
}

func TestHausdorffIndex(t *testing.T) {
	p, _ := New(Options{Nodes: 16, Seed: 6})
	rng := rand.New(rand.NewSource(7))
	shapes := make([]PointSet, 60)
	for i := range shapes {
		ps := make(PointSet, 3+rng.Intn(3))
		cx, cy := rng.Float64(), rng.Float64()
		for j := range ps {
			ps[j] = Vector{cx + rng.Float64()*0.05, cy + rng.Float64()*0.05}
		}
		shapes[i] = ps
	}
	ix, err := AddIndex(p, HausdorffSpace("shapes", 2, 0, 1.1), shapes, nil,
		IndexOptions{Landmarks: 3, SampleSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	matches, _, err := ix.RangeSearch(shapes[0], 0.06)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || matches[0].Distance != 0 {
		t.Fatalf("self-search failed: %v", matches)
	}
}

func TestRangeSearchTraced(t *testing.T) {
	_, ix, data := buildIndex(t, 800)
	matches, stats, trace, err := ix.RangeSearchTraced(data[0], 12)
	if err != nil {
		t.Fatal(err)
	}
	if trace == nil || len(trace.Events) == 0 {
		t.Fatal("no trace")
	}
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	if len(trace.Nodes()) < stats.IndexNodes {
		t.Fatalf("trace covers %d nodes, stats say %d answered", len(trace.Nodes()), stats.IndexNodes)
	}
}

func TestJaccardIndex(t *testing.T) {
	p, _ := New(Options{Nodes: 16, Seed: 8})
	rng := rand.New(rand.NewSource(9))
	// Items tagged from one of three tag pools.
	items := make([]IDSet, 300)
	for i := range items {
		pool := uint32(rng.Intn(3)) * 100
		n := 5 + rng.Intn(10)
		ids := make([]uint32, n)
		for j := range ids {
			ids[j] = pool + uint32(rng.Intn(40))
		}
		items[i] = NewIDSet(ids...)
	}
	ix, err := AddIndex(p, JaccardSpace("tags"), items, nil,
		IndexOptions{Landmarks: 3, SampleSize: 150})
	if err != nil {
		t.Fatal(err)
	}
	matches, _, err := ix.RangeSearch(items[0], 0.8)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, it := range items {
		if Jaccard(items[0], it) <= 0.8 {
			want++
		}
	}
	if len(matches) != want {
		t.Fatalf("got %d matches, want %d", len(matches), want)
	}
	if matches[0].Distance != 0 {
		t.Fatal("self not first")
	}
}

func TestReplicateAPI(t *testing.T) {
	p, ix, data := buildIndex(t, 1500)
	if err := ix.Replicate(3); err != nil {
		t.Fatal(err)
	}
	crashed := p.Crash(5)
	if crashed != 5 {
		t.Fatalf("crashed %d", crashed)
	}
	// Queries remain exact without any recovery.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 5; trial++ {
		q := data[rng.Intn(len(data))]
		r := 5 + rng.Float64()*8
		matches, _, err := ix.RangeSearch(q, r)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, v := range data {
			if L2(q, v) <= r {
				want++
			}
		}
		if len(matches) != want {
			t.Fatalf("post-crash search with replication: got %d, want %d", len(matches), want)
		}
	}
	// Replication + LB refused.
	if err := p.EnableLoadBalancing(LBConfig{}); err == nil {
		t.Fatal("expected replication/LB guard")
	}
}
