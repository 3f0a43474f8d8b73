package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/dataset"
	"landmarkdht/internal/indexspace"
	"landmarkdht/internal/landmark"
	"landmarkdht/internal/lph"
	"landmarkdht/internal/metric"
	"landmarkdht/internal/netmodel"
	"landmarkdht/internal/runtime/simrt"
	"landmarkdht/internal/sim"
	"landmarkdht/internal/wire"
)

// fixture is a small, brute-forceable deployment: a clustered 2-d
// dataset indexed under L2 with greedy landmarks on an n-node overlay.
type fixture struct {
	eng  *sim.Engine
	sys  *System
	data []metric.Vector
	emb  *indexspace.Embedding[metric.Vector]
	ids  []chord.ID
}

func buildFixture(t *testing.T, nNodes, nData, nLandmarks int, rotate bool) *fixture {
	t.Helper()
	return buildFixtureCfg(t, nNodes, nData, nLandmarks, rotate, DefaultConfig())
}

func buildFixtureCfg(t *testing.T, nNodes, nData, nLandmarks int, rotate bool, cfg Config) *fixture {
	t.Helper()
	eng := sim.NewEngine(1)
	model, err := netmodel.NewSyntheticKing(netmodel.KingConfig{N: nNodes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(simrt.New(eng), model, cfg)
	rng := rand.New(rand.NewSource(2))
	ids := make([]chord.ID, 0, nNodes)
	used := map[chord.ID]bool{}
	for i := 0; i < nNodes; i++ {
		id := chord.ID(rng.Uint64())
		for used[id] {
			id = chord.ID(rng.Uint64())
		}
		used[id] = true
		if _, err := sys.AddNode(id, i); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	sys.Stabilize()

	data, err := dataset.Clustered(dataset.ClusteredConfig{
		N: nData, Dim: 2, Lo: 0, Hi: 100, Clusters: 4, Dev: 6, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	space := metric.EuclideanSpace("test-l2", 2, 0, 100)
	sampleN := 200
	if sampleN > len(data) {
		sampleN = len(data)
	}
	lms, err := landmark.Greedy(rng, data[:sampleN], nLandmarks, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := indexspace.New(space, lms)
	if err != nil {
		t.Fatal(err)
	}
	part, err := emb.Partitioner(rotate)
	if err != nil {
		t.Fatal(err)
	}
	ix := &Index{
		Name: space.Name,
		Part: part,
		Dist: func(payload any, obj ObjectID) float64 {
			return metric.L2(payload.(metric.Vector), data[obj])
		},
	}
	if err := sys.DeployIndex(ix); err != nil {
		t.Fatal(err)
	}
	entries := make([]Entry, len(data))
	for i, v := range data {
		entries[i] = Entry{Obj: ObjectID(i), Point: emb.Map(v)}
	}
	if err := sys.BulkLoad(ix.Name, entries); err != nil {
		t.Fatal(err)
	}
	return &fixture{eng: eng, sys: sys, data: data, emb: emb, ids: ids}
}

// runRange runs a range query synchronously.
func (f *fixture) runRange(t *testing.T, srcIdx int, q metric.Vector, r float64, opts QueryOpts) *QueryResult {
	t.Helper()
	var out *QueryResult
	center := f.emb.Map(q)
	err := f.sys.RangeQuery("test-l2", f.ids[srcIdx], q, center, r, opts, func(qr *QueryResult) { out = qr })
	if err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if out == nil {
		t.Fatal("query did not complete")
	}
	return out
}

// bruteRange is ground truth for exact range queries.
func (f *fixture) bruteRange(q metric.Vector, r float64) map[ObjectID]bool {
	out := map[ObjectID]bool{}
	for i, v := range f.data {
		if metric.L2(q, v) <= r {
			out[ObjectID(i)] = true
		}
	}
	return out
}

func TestRangeQueryExact(t *testing.T) {
	f := buildFixture(t, 32, 2000, 3, false)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		q := f.data[rng.Intn(len(f.data))].Clone()
		q[0] += rng.NormFloat64()
		q[1] += rng.NormFloat64()
		r := 2 + rng.Float64()*15
		want := f.bruteRange(q, r)
		got := f.runRange(t, rng.Intn(32), q, r, QueryOpts{})
		if len(got.Results) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d (r=%v)", trial, len(got.Results), len(want), r)
		}
		for _, res := range got.Results {
			if !want[res.Obj] {
				t.Fatalf("false positive object %d at distance %v (r=%v)", res.Obj, res.Dist, r)
			}
			if d := metric.L2(q, f.data[res.Obj]); math.Abs(d-res.Dist) > 1e-9 {
				t.Fatalf("reported distance %v, actual %v", res.Dist, d)
			}
		}
	}
	if f.sys.DroppedSubqueries != 0 {
		t.Fatalf("dropped %d subqueries in a static network", f.sys.DroppedSubqueries)
	}
}

func TestRangeQueryResultsSorted(t *testing.T) {
	f := buildFixture(t, 16, 1000, 3, false)
	got := f.runRange(t, 0, f.data[10], 20, QueryOpts{})
	for i := 1; i < len(got.Results); i++ {
		if got.Results[i].Dist < got.Results[i-1].Dist {
			t.Fatal("results not sorted by distance")
		}
	}
}

func TestTopKProtocol(t *testing.T) {
	f := buildFixture(t, 32, 2000, 3, false)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		q := f.data[rng.Intn(len(f.data))]
		got := f.runRange(t, rng.Intn(32), q, 25, QueryOpts{TopK: 10})
		if len(got.Results) > 10 {
			t.Fatalf("topK returned %d results", len(got.Results))
		}
		// With a generous range, the merged top-10 must equal the true
		// 10 nearest neighbors (the index nodes each return their local
		// top-10; since the cube covers everything within r, the true
		// top-10 all appear if their distances <= coverage).
		type dv struct {
			obj ObjectID
			d   float64
		}
		var all []dv
		for i, v := range f.data {
			all = append(all, dv{ObjectID(i), metric.L2(q, v)})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
		trueTop := map[ObjectID]bool{}
		for _, x := range all[:10] {
			if x.d <= 25 { // only those the cube is guaranteed to cover
				trueTop[x.obj] = true
			}
		}
		gotSet := map[ObjectID]bool{}
		for _, rr := range got.Results {
			gotSet[rr.Obj] = true
		}
		for obj := range trueTop {
			if !gotSet[obj] {
				t.Fatalf("true neighbor %d missing from top-k merge", obj)
			}
		}
	}
}

func TestQueryStats(t *testing.T) {
	f := buildFixture(t, 32, 2000, 3, false)
	got := f.runRange(t, 0, f.data[0], 10, QueryOpts{})
	st := got.Stats
	if st.IndexNodes < 1 {
		t.Fatal("no index nodes answered")
	}
	if st.QueryMsgs < 1 && st.IndexNodes > 1 {
		t.Fatal("no query messages for a remote query")
	}
	if st.ResponseTime() < 0 || st.MaxLatency() < st.ResponseTime() {
		t.Fatalf("timing inconsistent: first=%v last=%v", st.ResponseTime(), st.MaxLatency())
	}
	if st.QueryBytes < int64(st.QueryMsgs)*24 {
		t.Fatalf("query bytes %d below header floor", st.QueryBytes)
	}
	if st.ResultBytes < int64(st.ResultMsgs)*20 {
		t.Fatalf("result bytes %d below header floor", st.ResultBytes)
	}
	if st.Candidates < len(got.Results) {
		t.Fatal("candidates below result count")
	}
}

func TestQueryTouchesMultipleNodes(t *testing.T) {
	f := buildFixture(t, 64, 5000, 2, false)
	// A very large range must hit several index nodes.
	got := f.runRange(t, 0, f.data[0], 60, QueryOpts{TopK: 10})
	if got.Stats.IndexNodes < 3 {
		t.Fatalf("large query touched only %d nodes", got.Stats.IndexNodes)
	}
	if got.Stats.Hops < 1 {
		t.Fatal("no hops recorded")
	}
}

func TestZeroRangeQuery(t *testing.T) {
	f := buildFixture(t, 16, 500, 3, false)
	got := f.runRange(t, 3, f.data[42], 0, QueryOpts{})
	found := false
	for _, r := range got.Results {
		if r.Obj == 42 && r.Dist == 0 {
			found = true
		}
		if r.Dist > 0 {
			t.Fatalf("zero-range query returned distance %v", r.Dist)
		}
	}
	if !found {
		t.Fatal("zero-range query missed the exact object")
	}
}

func TestRangeQueryValidation(t *testing.T) {
	f := buildFixture(t, 8, 100, 2, false)
	center := f.emb.Map(f.data[0])
	if err := f.sys.RangeQuery("nope", f.ids[0], f.data[0], center, 1, QueryOpts{}, nil); err == nil {
		t.Fatal("expected unknown-index error")
	}
	if err := f.sys.RangeQuery("test-l2", 424242, f.data[0], center, 1, QueryOpts{}, nil); err == nil {
		t.Fatal("expected unknown-node error")
	}
	if err := f.sys.RangeQuery("test-l2", f.ids[0], f.data[0], center[:1], 1, QueryOpts{}, nil); err == nil {
		t.Fatal("expected dimension error")
	}
	if err := f.sys.RangeQuery("test-l2", f.ids[0], f.data[0], center, -1, QueryOpts{}, nil); err == nil {
		t.Fatal("expected negative-range error")
	}
}

func TestBulkLoadOwnership(t *testing.T) {
	f := buildFixture(t, 32, 1000, 3, true)
	// Every stored entry must live on the oracle successor of its key.
	for _, in := range f.sys.Nodes() {
		for _, name := range in.st.Indexes() {
			keys, _ := viewCopy(in.st, name)
			for _, key := range keys {
				owner, err := f.sys.net.SuccessorNode(key)
				if err != nil {
					t.Fatal(err)
				}
				if owner.ID() != in.ID() {
					t.Fatalf("entry with key %#x stored on %#x, oracle owner %#x", key, in.ID(), owner.ID())
				}
			}
		}
	}
	if f.sys.TotalEntries() != 1000 {
		t.Fatalf("total entries = %d, want 1000", f.sys.TotalEntries())
	}
}

// BulkLoad gives each owner its entries in one batch; every node must
// hold what one Put per entry, in the order given, stores — keys and
// entries, in storage order — including a second load behind the first
// whose points repeat the first's keys. An entry of the wrong
// dimensionality fails the load with nothing of it stored.
func TestBulkLoadMatchesPutPerEntry(t *testing.T) {
	f := buildFixture(t, 32, 1000, 3, true)
	more := make([]Entry, 300)
	for i := range more {
		more[i] = Entry{Obj: ObjectID(len(f.data) + i), Point: f.emb.Map(f.data[i*7%len(f.data)])}
	}
	if err := f.sys.BulkLoad("test-l2", more); err != nil {
		t.Fatal(err)
	}
	part := f.sys.index["test-l2"].Part
	want := map[chord.ID]*MemStore{}
	put := func(e Entry) {
		key := part.Ring(part.Hash(e.Point))
		owner, err := f.sys.net.SuccessorNode(key)
		if err != nil {
			t.Fatal(err)
		}
		if want[owner.ID()] == nil {
			want[owner.ID()] = NewMemStore()
		}
		if err := want[owner.ID()].Put("test-l2", key, e); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range f.data {
		put(Entry{Obj: ObjectID(i), Point: f.emb.Map(v)})
	}
	for _, e := range more {
		put(e)
	}
	for _, in := range f.sys.Nodes() {
		keys, entries := viewCopy(in.st, "test-l2")
		var wantKeys []lph.Key
		var wantEntries []Entry
		if st := want[in.ID()]; st != nil {
			wantKeys, wantEntries = viewCopy(st, "test-l2")
		}
		if !slices.Equal(keys, wantKeys) || len(entries) != len(wantEntries) {
			t.Fatalf("node %#x holds %d keys, one Put per entry stores %d", in.ID(), len(keys), len(wantKeys))
		}
		for i, e := range entries {
			if e.Obj != wantEntries[i].Obj || !slices.Equal(e.Point, wantEntries[i].Point) {
				t.Fatalf("node %#x row %d holds %v, one Put per entry stores %v", in.ID(), i, e, wantEntries[i])
			}
		}
	}
	before := f.sys.TotalEntries()
	bad := []Entry{{Obj: 1, Point: more[0].Point}, {Obj: 2, Point: []float64{1}}}
	if err := f.sys.BulkLoad("test-l2", bad); err == nil {
		t.Fatal("a load with a point of the wrong dimensionality succeeded")
	}
	if got := f.sys.TotalEntries(); got != before {
		t.Fatalf("a refused load stored %d entries", got-before)
	}
}

func TestPublishMatchesBulkLoad(t *testing.T) {
	f := buildFixture(t, 16, 100, 2, false)
	v := metric.Vector{50, 50}
	point := f.emb.Map(v)
	var owner chord.ID
	err := f.sys.Publish("test-l2", f.ids[0], Entry{Obj: 9999, Point: point}, func(o chord.ID, _ int, err error) {
		if err != nil {
			t.Error(err)
		}
		owner = o
	})
	if err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	part := f.sys.index["test-l2"].Part
	want, _ := f.sys.net.SuccessorNode(part.Ring(part.Hash(point)))
	if owner != want.ID() {
		t.Fatalf("published to %#x, oracle owner %#x", owner, want.ID())
	}
	if f.sys.TotalEntries() != 101 {
		t.Fatalf("entries = %d", f.sys.TotalEntries())
	}
}

func TestPublishValidation(t *testing.T) {
	f := buildFixture(t, 8, 10, 2, false)
	if err := f.sys.Publish("nope", f.ids[0], Entry{}, nil); err == nil {
		t.Fatal("expected unknown-index error")
	}
	if err := f.sys.Publish("test-l2", 123456, Entry{Point: []float64{1, 2}}, nil); err == nil {
		t.Fatal("expected unknown-node error")
	}
	if err := f.sys.Publish("test-l2", f.ids[0], Entry{Point: []float64{1}}, nil); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestNaiveMatchesTreeRouting(t *testing.T) {
	f := buildFixture(t, 32, 2000, 3, false)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		q := f.data[rng.Intn(len(f.data))]
		r := 3 + rng.Float64()*8
		center := f.emb.Map(q)

		var tree, naive *QueryResult
		if err := f.sys.RangeQuery("test-l2", f.ids[0], q, center, r, QueryOpts{}, func(qr *QueryResult) { tree = qr }); err != nil {
			t.Fatal(err)
		}
		f.eng.Run()
		if err := f.sys.NaiveRangeQuery("test-l2", f.ids[0], q, center, r, QueryOpts{}, func(qr *QueryResult) { naive = qr }); err != nil {
			t.Fatal(err)
		}
		f.eng.Run()
		if tree == nil || naive == nil {
			t.Fatal("queries did not complete")
		}
		if len(tree.Results) != len(naive.Results) {
			t.Fatalf("result mismatch: tree=%d naive=%d", len(tree.Results), len(naive.Results))
		}
		for i := range tree.Results {
			if tree.Results[i].Obj != naive.Results[i].Obj {
				t.Fatalf("result %d differs: %d vs %d", i, tree.Results[i].Obj, naive.Results[i].Obj)
			}
		}
	}
}

func TestNaiveCostsMore(t *testing.T) {
	f := buildFixture(t, 64, 5000, 2, false)
	q := f.data[0]
	center := f.emb.Map(q)
	var tree, naive *QueryResult
	// A broad query where tree routing's shared prefixes pay off.
	if err := f.sys.RangeQuery("test-l2", f.ids[0], q, center, 50, QueryOpts{TopK: 10}, func(qr *QueryResult) { tree = qr }); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if err := f.sys.NaiveRangeQuery("test-l2", f.ids[0], q, center, 50, QueryOpts{TopK: 10}, func(qr *QueryResult) { naive = qr }); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if naive.Stats.QueryMsgs <= tree.Stats.QueryMsgs {
		t.Fatalf("naive (%d msgs) not costlier than tree routing (%d msgs)",
			naive.Stats.QueryMsgs, tree.Stats.QueryMsgs)
	}
}

// TestMessageModel checks the message sizes core charges against the
// paper's §4.1 byte accounting.
func TestMessageModel(t *testing.T) {
	// Paper formula: 20 + 4 + n(4k + 9).
	if got := wire.QuerySize(3, 10); got != 24+3*(40+9) {
		t.Fatalf("query bytes = %d", got)
	}
	if got := wire.ResultSize(10); got != 20+60 {
		t.Fatalf("result bytes = %d", got)
	}
	if got := 5 * TransferEntryBytes; got != 70 {
		t.Fatalf("transfer bytes = %d", got)
	}
}

func TestDeployIndexValidation(t *testing.T) {
	f := buildFixture(t, 8, 10, 2, false)
	if err := f.sys.DeployIndex(&Index{}); err == nil {
		t.Fatal("expected validation error")
	}
	part := f.sys.index["test-l2"].Part
	dup := &Index{Name: "test-l2", Part: part, Dist: func(any, ObjectID) float64 { return 0 }}
	if err := f.sys.DeployIndex(dup); err == nil {
		t.Fatal("expected duplicate error")
	}
	if names := f.sys.IndexNames(); len(names) != 1 || names[0] != "test-l2" {
		t.Fatalf("index names = %v", names)
	}
}

func TestLoadBalancingFlattens(t *testing.T) {
	// Skewed deployment: tiny node count, heavily clustered data so a
	// few nodes hold nearly everything.
	f := buildFixture(t, 24, 3000, 2, false)
	before := f.sys.Loads()
	if before[0] < 3000/24*3 {
		t.Skipf("data not skewed enough for the test (max=%d)", before[0])
	}
	if err := f.sys.EnableLoadBalancing(LBConfig{Delta: 0, ProbeLevel: 4, Period: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	f.eng.RunUntil(f.eng.Now() + 10*time.Minute)
	f.sys.DisableLoadBalancing()
	f.eng.Run()
	after := f.sys.Loads()
	if f.sys.TotalEntries() != 3000 {
		t.Fatalf("entries not conserved: %d", f.sys.TotalEntries())
	}
	if after[0] >= before[0] {
		t.Fatalf("max load did not drop: before=%d after=%d", before[0], after[0])
	}
	migrations, _ := 0, 0
	_ = migrations
	if after[0] > before[0]/2 {
		t.Logf("note: max load %d -> %d (limited flattening)", before[0], after[0])
	}
}

func TestLoadBalancingConservesAndStaysCorrect(t *testing.T) {
	f := buildFixture(t, 24, 2000, 2, false)
	if err := f.sys.EnableLoadBalancing(LBConfig{Delta: 0, ProbeLevel: 2, Period: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	f.eng.RunUntil(f.eng.Now() + 5*time.Minute)
	f.sys.DisableLoadBalancing()
	f.eng.Run()
	if got := f.sys.TotalEntries(); got != 2000 {
		t.Fatalf("entries not conserved: %d", got)
	}
	// After the system settles, queries must be exact again. Source
	// nodes must be picked from the live set — migrations changed ids.
	rng := rand.New(rand.NewSource(11))
	live := f.sys.Nodes()
	for trial := 0; trial < 10; trial++ {
		q := f.data[rng.Intn(len(f.data))]
		r := 3 + rng.Float64()*10
		want := f.bruteRange(q, r)
		src := live[rng.Intn(len(live))].ID()
		var out *QueryResult
		center := f.emb.Map(q)
		if err := f.sys.RangeQuery("test-l2", src, q, center, r, QueryOpts{}, func(qr *QueryResult) { out = qr }); err != nil {
			t.Fatal(err)
		}
		f.eng.Run()
		if out == nil || len(out.Results) != len(want) {
			t.Fatalf("post-LB exactness broken: got %v, want %d", out, len(want))
		}
	}
	// Entries still live on their oracle owners.
	for _, in := range f.sys.Nodes() {
		for _, name := range in.st.Indexes() {
			keys, _ := viewCopy(in.st, name)
			for _, key := range keys {
				owner, _ := f.sys.net.SuccessorNode(key)
				if owner.ID() != in.ID() {
					t.Fatalf("post-LB entry misplaced: key %#x on %#x, owner %#x", key, in.ID(), owner.ID())
				}
			}
		}
	}
}

func TestEnableLoadBalancingTwice(t *testing.T) {
	f := buildFixture(t, 8, 100, 2, false)
	if err := f.sys.EnableLoadBalancing(LBConfig{ProbeLevel: 4, Period: 30 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := f.sys.EnableLoadBalancing(LBConfig{ProbeLevel: 4, Period: 30 * time.Second}); err == nil {
		t.Fatal("expected error enabling twice")
	}
	f.sys.DisableLoadBalancing()
	f.sys.DisableLoadBalancing() // idempotent
}

func TestRotationDecorrelatesHotspots(t *testing.T) {
	// Two index schemes over the same data: without rotation their hot
	// ranges coincide on the ring; with rotation they spread.
	f := buildFixture(t, 32, 2000, 3, true)
	data := f.data
	// Second scheme: same space, different name => different rotation.
	space2 := metric.EuclideanSpace("test-l2-b", 2, 0, 100)
	rng := rand.New(rand.NewSource(4))
	lms, _ := landmark.Greedy(rng, data[:min(200, len(data))], 3, metric.L2)
	emb2, _ := indexspace.New(space2, lms)
	part2, _ := emb2.Partitioner(true)
	ix2 := &Index{
		Name: space2.Name,
		Part: part2,
		Dist: func(p any, o ObjectID) float64 { return metric.L2(p.(metric.Vector), data[o]) },
	}
	if err := f.sys.DeployIndex(ix2); err != nil {
		t.Fatal(err)
	}
	entries := make([]Entry, len(data))
	for i, v := range data {
		entries[i] = Entry{Obj: ObjectID(i), Point: emb2.Map(v)}
	}
	if err := f.sys.BulkLoad(ix2.Name, entries); err != nil {
		t.Fatal(err)
	}
	// With rotation, the per-scheme hottest nodes should differ.
	hottest := func(name string) chord.ID {
		var best chord.ID
		bestLoad := -1
		for _, in := range f.sys.Nodes() {
			if l := in.LoadFor(name); l > bestLoad {
				best, bestLoad = in.ID(), l
			}
		}
		return best
	}
	h1, h2 := hottest("test-l2"), hottest("test-l2-b")
	// The index points are identical, so without rotation the same
	// node would be hottest for both. Rotation must separate them.
	if h1 == h2 {
		t.Fatalf("rotation failed to separate hotspots (both on %#x)", h1)
	}
}

func TestStoreMedianAndExtract(t *testing.T) {
	st := NewMemStore()
	base := lph.Key(1000)
	var allKeys []lph.Key
	for i := 0; i < 10; i++ {
		k := base + lph.Key(i*10)
		allKeys = append(allKeys, k)
		if err := st.Put("ix", k, Entry{Obj: ObjectID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	split, ok := medianOffsetKey(allKeys, base)
	if !ok {
		t.Fatal("median not found")
	}
	keys, entries, err := st.ExtractUpTo("ix", base, split)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 || len(keys) == 10 {
		t.Fatalf("extract took %d of 10", len(keys))
	}
	if len(keys) != len(entries) {
		t.Fatal("keys/entries length mismatch")
	}
	if st.Size("ix")+len(entries) != 10 {
		t.Fatal("entries lost in extraction")
	}
	for _, k := range keys {
		if k-base > split-base {
			t.Fatalf("extracted key %#x beyond split %#x", k, split)
		}
	}
	st.View("ix", func(kept []lph.Key, _ []Entry) {
		for _, k := range kept {
			if k-base <= split-base {
				t.Fatalf("retained key %#x at or below split", k)
			}
		}
	})
}

func TestStoreSingleKeyUnsplittable(t *testing.T) {
	keys := make([]lph.Key, 10)
	for i := range keys {
		keys[i] = 777
	}
	if _, ok := medianOffsetKey(keys, 0); ok {
		t.Fatal("single-key load must be unsplittable (§4.3)")
	}
}

// TestRefineLocalCutIgnoresScanOrder: a node's top-k cut orders its
// candidates as finish does, by distance and then by object, so which of
// several equidistant objects it returns does not depend on the order the
// store's scan found them in.
func TestRefineLocalCutIgnoresScanOrder(t *testing.T) {
	dist := map[ObjectID]float64{1: 0.5, 2: 0.25, 3: 0.5, 4: 0.5, 5: 0.75, 6: 0.5}
	d := func(_ any, obj ObjectID) float64 { return dist[obj] }
	aq := &activeQuery{topK: 3, ix: &Index{Dist: d, Refine: distRefiner(d)}}
	want := []Result{{Obj: 2, Dist: 0.25}, {Obj: 1, Dist: 0.5}, {Obj: 3, Dist: 0.5}}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var cands []int32
		for _, obj := range rng.Perm(len(dist)) {
			cands = append(cands, int32(obj+1))
		}
		if got := refineLocal(aq, cands, new(refineBatch)); !slices.Equal(got, want) {
			t.Fatalf("candidates %v: cut to %v, want %v", cands, got, want)
		}
	}
}
