package netrt

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/metric"
	"landmarkdht/internal/query"
)

// localQueryFixture is the fixture behind bench's netrt.local_query_us
// on ring-scan: one member holding the largest member's share (57 409
// euclid objects, dim 8, 6 landmarks), radius 0.30, a cyclic sequence
// of 256 random queries. The member sits at the ring position of that
// share's owner whatever port it was given: the position decides how
// many sub-cuboids Algorithm 5 cuts, so an ephemeral one would make
// every run a different benchmark. The returned function runs the next
// query on the returned node.
func localQueryFixture(tb testing.TB) (*Node, func()) {
	tb.Helper()
	return localQueryFixtureAt(tb, 0.30)
}

// localQueryFixtureAt is localQueryFixture at radius r.
func localQueryFixtureAt(tb testing.TB, r float64) (*Node, func()) {
	tb.Helper()
	data := DataConfig{Metric: "euclid", Seed: 1, Objects: 57409, Dim: 8, Landmarks: 6}
	n, err := Start(Config{Listen: "127.0.0.1:0", Data: data,
		GossipPeriod: time.Hour, HeartbeatPeriod: time.Hour, AntiEntropyPeriod: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(n.Close)
	pinID(tb, n, NodeID("127.0.0.1:52268"))
	rng := rand.New(rand.NewSource(1))
	queries := make([][]byte, localQueryCycle)
	for i := range queries {
		queries[i] = n.data.RandomQuery(rng)
	}
	next := 0
	return n, func() {
		out, err := n.Query(queries[next%len(queries)], r, 5*time.Second)
		if err != nil || !out.Complete {
			tb.Fatalf("query %d: complete=%v err=%v", next, out.Complete, err)
		}
		next++
	}
}

// localQueryCycle is the length of the fixture's query sequence.
const localQueryCycle = 256

// answerWork reads the node's cumulative answer counters.
func answerWork(tb testing.TB, n *Node) (tested, refined uint64) {
	tb.Helper()
	if err := n.rt.Do(func() { tested, refined = n.tested, n.refined }); err != nil {
		tb.Fatal(err)
	}
	return tested, refined
}

// BenchmarkLocalQuery is one member's whole share of a range query —
// region, decomposition, leaf walk, refinement, merge — with no peers.
// tested/op and refined/op are the entries compared with a cube and the
// exact distances computed per query: ns/op over refined/op bounds what
// one candidate costs, and a change that moves ns/op but not the counts
// changed what a candidate costs, not which candidates there are.
func BenchmarkLocalQuery(b *testing.B) {
	benchmarkLocalQuery(b, 0.30)
}

// BenchmarkLocalQuerySelective is BenchmarkLocalQuery at radius 0.12,
// where a query keeps a few hundred candidates: the region split and the
// leaf walk weigh more beside the refinement.
func BenchmarkLocalQuerySelective(b *testing.B) {
	benchmarkLocalQuery(b, 0.12)
}

func benchmarkLocalQuery(b *testing.B, r float64) {
	n, query := localQueryFixtureAt(b, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
	tested, refined := answerWork(b, n)
	b.ReportMetric(float64(tested)/float64(b.N), "tested/op")
	b.ReportMetric(float64(refined)/float64(b.N), "refined/op")
}

// localQueryExtras is how many published extras the extras variant of
// the fixture holds: more than the ≈ 2 k boot entries a ring-write-mix
// member holds, as a member of that ring ends its run with.
const localQueryExtras = 10_000

// withExtras applies localQueryExtras publishes of random vectors, under
// ids past the corpus, to the fixture node's own delta — what its
// answers read beside the columns.
func withExtras(tb testing.TB, n *Node) {
	tb.Helper()
	rng := rand.New(rand.NewSource(2))
	dim := 8
	err := n.rt.Do(func() {
		for i := 0; i < localQueryExtras; i++ {
			v := make([]float64, dim)
			for j := range v {
				v[j] = rng.Float64()
			}
			x, err := placeExtra(n.data, EncodeVectorQuery(v))
			if err != nil {
				tb.Error(err)
				return
			}
			n.mine.apply(int32(n.data.N()+i), false, x)
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkLocalQueryExtras is BenchmarkLocalQuery with localQueryExtras
// published extras in the node's delta: what a write-heavy member's
// answers cost beside the boot entries. tested/op and refined/op count
// extras as they count boot entries.
func BenchmarkLocalQueryExtras(b *testing.B) {
	n, query := localQueryFixture(b)
	withExtras(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
	tested, refined := answerWork(b, n)
	b.ReportMetric(float64(tested)/float64(b.N), "tested/op")
	b.ReportMetric(float64(refined)/float64(b.N), "refined/op")
}

// TestLocalQueryWorkPinned pins the two counters over one cycle of the
// fixture's queries. They are a property of the corpus, the ring
// position, the queries and leafRows — nothing timed — so they repeat
// exactly, and a change to where a candidate's bytes live must leave
// them where the by-id layout before it had them (the same test against
// that commit, instrumented, reads these two numbers). refined does
// not depend on the index; tested moves with it and with leafRows.
func TestLocalQueryWorkPinned(t *testing.T) {
	n, query := localQueryFixture(t)
	for i := 0; i < localQueryCycle; i++ {
		query()
	}
	const wantTested, wantRefined = 4_567_123, 977_533
	if tested, refined := answerWork(t, n); tested != wantTested || refined != wantRefined {
		t.Fatalf("one cycle tested %d entries and refined %d, want %d and %d", tested, refined, wantTested, wantRefined)
	}
}

// localShares is process's worklist on a one-member ring, where every
// region and every sub-cuboid Algorithm 5 cuts is the node's own: the
// shares of a message carrying reg, answered against d.
func localShares(n *Node, reg query.Region, d *delta) []share {
	var shares []share
	for work := []query.Region{reg}; len(work) > 0; {
		reg := work[len(work)-1]
		work = work[:len(work)-1]
		work = n.refine(reg, n.id, work)
		shares = addShare(shares, d, reg, n.cutAt(reg, n.id))
	}
	return shares
}

// answerReference is answer without its index or its batches: every
// float64 point of a region's run up to its cut (corpus.Point), one at a
// time, through Region.Contains and the tombstones, then metric.L2 once per
// candidate, each hit appended as it is found; then the share's extras,
// read off the delta's rows the same way.
func answerReference(n *Node, q *queryMsg, shares []share) []ResultEntry {
	ds := n.data.(*dataset[metric.Vector])
	qv, err := ds.dec(q.QObj)
	if err != nil {
		panic(err)
	}
	cols := n.data.Cols()
	pt := make([]float64, cols.k)
	var ents []ResultEntry
	for _, s := range shares {
		for i, reg := range s.regions {
			a, b := reg.Run(cols.keys)
			for j := a; j < min(b, cols.above(s.cuts[i])); j++ {
				id := cols.ids[j]
				if _, dead := s.d.tombs[id]; dead || !reg.Contains(n.data.Point(int(id), pt)) {
					continue
				}
				if d := metric.L2(qv, ds.at(j)); d <= q.R {
					ents = append(ents, ResultEntry{Obj: id, Dist: d})
				}
			}
		}
		// The extras in the order answerExtras finds them: the rows of
		// the delta's index in row order — a region's body stretch in key
		// order, then its tail — each point mapped again from its object.
		d := s.d
		for i, reg := range s.regions {
			lo, hi := lph.CuboidSpan(reg.PreKey, reg.PreLen)
			top := min(hi-1, s.cuts[i])
			for r := range d.rows.Len() {
				slot := d.rows.Ref(r)
				if slot < 0 {
					continue
				}
				key, point, _, err := n.data.MapObj(d.objs[slot])
				if err != nil {
					panic(err)
				}
				if key = n.data.Part().Unring(key); key < lo || key > top || !reg.Contains(point) {
					continue
				}
				if dist := metric.L2(qv, d.vecs[int(slot)*d.dim:int(slot+1)*d.dim]); dist <= q.R {
					ents = append(ents, ResultEntry{Obj: d.rows.ID(r), Dist: dist})
				}
			}
		}
	}
	return ents
}

// TestAnswerMatchesL2 holds answer's entries on BenchmarkLocalQuery's
// fixture — in order, each Dist to the bit — to answerReference, which
// calls metric.L2 once per candidate. Each query is answered against two
// shares of the same regions: one whose delta tombstones every fifth
// boot id, and one whose delta holds localQueryExtras published extras,
// so the batch is flushed across leaves, regions and shares, and before
// a share's extras.
func TestAnswerMatchesL2(t *testing.T) {
	n, _ := localQueryFixture(t)
	tombed, extras := newDelta(), newDelta()
	for id := int32(0); int(id) < n.data.N(); id += 5 {
		tombed.apply(id, true, nil)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < localQueryExtras; i++ {
		v := make([]float64, 8)
		for j := range v {
			v[j] = rng.Float64()
		}
		x, err := placeExtra(n.data, EncodeVectorQuery(v))
		if err != nil {
			t.Fatal(err)
		}
		extras.apply(int32(n.data.N()+i), false, x)
	}
	qrng := rand.New(rand.NewSource(1))
	var answered, fromExtras int
	for i := 0; i < 32; i++ {
		qobj := n.data.RandomQuery(qrng)
		reg, err := n.data.QueryRegion(qobj, 0.30)
		if err != nil {
			t.Fatal(err)
		}
		q := &queryMsg{QObj: qobj, R: 0.30}
		var got, want []ResultEntry
		execRead(t, n, func() {
			shares := append(localShares(n, reg, &tombed), localShares(n, reg, &extras)...)
			if got, err = n.answer(q, shares); err != nil {
				return
			}
			want = answerReference(n, q, shares)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d entries, the reference %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k].Obj != want[k].Obj || math.Float64bits(got[k].Dist) != math.Float64bits(want[k].Dist) {
				t.Fatalf("query %d, entry %d: %d at %v (%#x), the reference %d at %v (%#x)", i, k,
					got[k].Obj, got[k].Dist, math.Float64bits(got[k].Dist), want[k].Obj, want[k].Dist, math.Float64bits(want[k].Dist))
			}
			if int(got[k].Obj) >= n.data.N() {
				fromExtras++
			}
		}
		answered += len(got)
	}
	if fromExtras == 0 || fromExtras == answered {
		t.Fatalf("%d entries, %d of them extras: the test does not cover both kinds", answered, fromExtras)
	}
}

// TestNaNBoundRefinesNothing: a peer's region whose cube has a NaN bound
// contains no point (Region.Contains compares in order, and a NaN is
// ordered with nothing), and the leaf boxes say so too: the region's
// prefix is one stored key in full, and its run lies under boxes the
// NaN bound meets none of, so no entry is tested at all. With the bound
// restored the same region tests and refines the key's entries, so the
// run is reached.
func TestNaNBoundRefinesNothing(t *testing.T) {
	cfg := testConfig(testData())
	cfg.GossipPeriod, cfg.HeartbeatPeriod, cfg.AntiEntropyPeriod = silent, silent, silent
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ds, err := BuildDataset(testData())
	if err != nil {
		t.Fatal(err)
	}
	const peerAddr = "127.0.0.1:9"
	part := n.data.Part()
	key := n.data.Cols().keys[n.data.N()/3]
	answerOne := func(lo float64) (tested, refined uint64) {
		t.Helper()
		reg := query.Region{Cube: part.AllBounds(), PreKey: key, PreLen: lph.M}
		reg.Cube[0].Lo = lo
		t0, r0 := answerWork(t, n)
		execRead(t, n, func() {
			n.process(&queryMsg{Origin: NodeID(peerAddr), OriginAddr: peerAddr, Epoch: 1, QID: 1, Credit: creditTotal,
				Regions: []query.Region{reg}, QObj: ds.RandomQuery(rand.New(rand.NewSource(3))), R: 10, TTL: 4}, true)
		})
		t1, r1 := answerWork(t, n)
		return t1 - t0, r1 - r0
	}
	if tested, got := answerOne(math.NaN()); tested != 0 || got != 0 {
		t.Fatalf("a NaN bound: %d entries tested and %d refined, want none", tested, got)
	}
	if tested, got := answerOne(part.Bounds(0).Lo); tested == 0 || got != tested {
		t.Fatalf("the bound restored: %d entries tested and %d refined, want all of them", tested, got)
	}
}

// TestBandDecidedInFloat64 puts a bound of a region's cube on a stored
// point's float64 coordinate, which no float32 holds, and one float64
// ulp below and above it, on the low side and on the high side. The
// point's float32 row is then in the cube's rounding band (query.Box32),
// inside the outer cube and outside the inner one, where only its
// float64 point decides: the answer must be BruteForce's entries that
// the cube contains, to the bit, and refined the number of corpus
// points it contains, read through Point, whichever side of the bound
// the point is.
func TestBandDecidedInFloat64(t *testing.T) {
	cfg := testConfig(testData())
	cfg.GossipPeriod, cfg.HeartbeatPeriod, cfg.AntiEntropyPeriod = silent, silent, silent
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ds, err := BuildDataset(testData())
	if err != nil {
		t.Fatal(err)
	}
	part, cols := n.data.Part(), n.data.Cols()
	k, N := part.K(), n.data.N()
	points := make([][]float64, N)
	for i := range points {
		points[i] = n.data.Point(i, make([]float64, k))
	}
	const r = 0.3
	rng := rand.New(rand.NewSource(4))
	var bandIn, bandOut int
	for target := 0; target < 16; target++ {
		id, dim := rng.Intn(N), rng.Intn(k)
		p := points[id]
		if float64(float32(p[dim])) == p[dim] {
			t.Fatalf("entry %d: coordinate %d, %v, is a float32", id, dim, p[dim])
		}
		qobj := objAt(n.data, int(cols.pos[id])) // the entry itself, at distance 0
		all, err := ds.BruteForce(qobj, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, high := range []bool{false, true} {
			for _, ulps := range []int{-1, 0, 1} {
				cube := make([]lph.Bounds, k)
				for j, x := range p {
					cube[j] = lph.Bounds{Lo: x - 0.1, Hi: x + 0.1}
				}
				bound := p[dim]
				switch ulps {
				case -1:
					bound = math.Nextafter(bound, math.Inf(-1))
				case 1:
					bound = math.Nextafter(bound, math.Inf(1))
				}
				if high {
					cube[dim].Hi = bound
				} else {
					cube[dim].Lo = bound
				}
				reg, err := query.New(part, cube)
				if err != nil {
					t.Fatal(err)
				}
				var want []ResultEntry
				for _, e := range all {
					if reg.Contains(points[e.Obj]) {
						want = append(want, e)
					}
				}
				wantRefined := 0
				for _, pt := range points {
					if reg.Contains(pt) {
						wantRefined++
					}
				}
				var box query.Box32
				box.Set(reg.Cube)
				outer, inner := box.Mask(cols.rows(int(cols.pos[id]), 1), 1)
				if outer != 1 || inner != 0 {
					t.Fatalf("entry %d, bound %v on dimension %d: its float32 row is outer %d, inner %d, not in the band", id, bound, dim, outer, inner)
				}
				if reg.Contains(p) {
					bandIn++
				} else {
					bandOut++
				}
				var got []ResultEntry
				var refined uint64
				execRead(t, n, func() {
					before := n.refined
					got, err = n.answer(&queryMsg{QObj: qobj, R: r}, localShares(n, reg, &n.mine))
					refined = n.refined - before
				})
				if err != nil {
					t.Fatal(err)
				}
				slices.SortFunc(got, func(a, b ResultEntry) int { return cmp.Compare(a.Obj, b.Obj) })
				if !slices.Equal(got, want) {
					t.Fatalf("entry %d, bound %v (high %v, %+d ulp) on dimension %d: answer %v, brute force in the cube %v", id, bound, high, ulps, dim, got, want)
				}
				if refined != uint64(wantRefined) {
					t.Fatalf("entry %d, bound %v (high %v, %+d ulp) on dimension %d: refined %d, the float64 cube contains %d", id, bound, high, ulps, dim, refined, wantRefined)
				}
			}
		}
	}
	if bandIn == 0 || bandOut == 0 {
		t.Fatalf("%d band rows inside the cube, %d outside: the test does not cover both", bandIn, bandOut)
	}
}

// localQueryAllocsCeiling bounds the heap allocations of one local
// query on the fixture above. Measured 43, the same on every run, with
// and without the race detector: one per sub-cuboid Algorithm 5 cuts at
// the fixture's position that the cube reaches (query.Refine's cube),
// the executor hand-off, the deadline timer, and the doubling of the
// result slice and of the origin's merge map — nothing per region's
// walk, nothing per leaf, nothing per candidate, and nothing per zero
// bit of the node's id (92 while a Restrict per bit cloned the cube and
// rebuilt its cuboid whether or not the cube reached it; 45 while every
// descent built its cuboid on the heap). The ceiling is the measurement
// plus 20 %.
const localQueryAllocsCeiling = 52

// TestLocalQueryAllocsCeiling fails when the local answer starts
// allocating per leaf or per candidate again (the fixture tests
// thousands of leaf boxes and tens of thousands of points per query).
func TestLocalQueryAllocsCeiling(t *testing.T) {
	_, query := localQueryFixture(t)
	for i := 0; i < localQueryCycle; i++ {
		query()
	}
	allocs := testing.AllocsPerRun(localQueryCycle, query)
	t.Logf("%.0f allocs per local query (ceiling %d)", allocs, localQueryAllocsCeiling)
	if allocs > localQueryAllocsCeiling {
		t.Fatalf("%.0f allocs per local query, ceiling %d", allocs, localQueryAllocsCeiling)
	}
}

// localQueryExtrasAllocsCeiling bounds the heap allocations of one local
// query on the fixture with localQueryExtras extras. Measured 44, the
// 43 of the fixture without them plus the longer result slice and merge
// map the matching extras grow — nothing per extra tested and nothing
// per exact distance (46 while the extras decoded the query object a
// second time; 711 while every in-cube extra's object was decoded again
// per query, one allocation each). The ceiling is the 46 plus 20 %.
const localQueryExtrasAllocsCeiling = 55

// TestLocalQueryExtrasAllocsCeiling fails when an answer starts
// allocating per published extra it tests or refines.
func TestLocalQueryExtrasAllocsCeiling(t *testing.T) {
	n, query := localQueryFixture(t)
	withExtras(t, n)
	for i := 0; i < localQueryCycle; i++ {
		query()
	}
	allocs := testing.AllocsPerRun(localQueryCycle, query)
	t.Logf("%.0f allocs per local query with %d extras (ceiling %d)", allocs, localQueryExtras, localQueryExtrasAllocsCeiling)
	if allocs > localQueryExtrasAllocsCeiling {
		t.Fatalf("%.0f allocs per local query with %d extras, ceiling %d", allocs, localQueryExtras, localQueryExtrasAllocsCeiling)
	}
}
