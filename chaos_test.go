package landmarkdht

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"landmarkdht/internal/core"
)

// chaosCounters is one chaos run's outcome: what was asked and answered,
// and what the faults and the resilience layer did. Two runs of a seed
// must produce the same counters.
type chaosCounters struct {
	queries, complete, incomplete, results int
	rejected, retries, recovered, hedges   int
	dropped, duplicated                    int64
	lostSubqueries                         int
	// inexact counts Complete answers that differ from brute force:
	// none may, while every entry has a live copy.
	inexact int
}

func (c *chaosCounters) add(o chaosCounters) {
	c.queries += o.queries
	c.complete += o.complete
	c.incomplete += o.incomplete
	c.results += o.results
	c.rejected += o.rejected
	c.retries += o.retries
	c.recovered += o.recovered
	c.hedges += o.hedges
	c.dropped += o.dropped
	c.duplicated += o.duplicated
	c.lostSubqueries += o.lostSubqueries
	c.inexact += o.inexact
}

// chaosConfig is what a chaos run varies: the message loss, the copies
// of every entry (1: no replication) and whether slow subqueries are
// hedged. chaosSoak is the soak's.
type chaosConfig struct {
	drop   float64
	copies int
	hedge  bool
}

var chaosSoak = chaosConfig{drop: 0.05, copies: 3, hedge: true}

const (
	chaosNodes   = 24
	chaosObjects = 2000
	chaosDim     = 8
	chaosQueries = 160
	chaosGap     = 20 * time.Millisecond // mean gap between query arrivals
	chaosCycles  = 6                     // crash/join cycles per run
	chaosCap     = 40                    // MaxActiveQueries on every fourth seed
)

// TestChaosSoak is the chaos soak on the simulator. Each seed builds a
// 3-way replicated overlay under 5 % message loss and 2 % duplication,
// with retries, hedging and a deadline armed, then issues overlapping
// range queries at Poisson times in simulated time while nodes crash
// and join. Every answer is checked against brute force: a Complete one
// must be exact, an incomplete one a subset that says what it is
// missing. Every fourth seed also caps admission, so some queries are
// rejected, honestly. A failure replays with its seed alone:
//
//	go test -run 'TestChaosSoak/seed=17$' .
func TestChaosSoak(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 8
	}
	var total chaosCounters
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			got, _ := chaosRun(t, seed, chaosSoak, nil)
			if seed == 1 {
				if again, _ := chaosRun(t, seed, chaosSoak, nil); again != got {
					t.Fatalf("seed %d replayed to different counters:\n first %+v\nsecond %+v", seed, got, again)
				}
			}
			total.add(got)
		})
	}
	if total.queries < seeds*chaosQueries {
		return // a seed failed, or a -run filter picked some: the totals mean nothing
	}
	perQuery := float64(total.results) / float64(total.queries)
	t.Logf("%d seeds: %d queries, %d complete, %d incomplete (%d rejected), %.1f results/query; "+
		"%d messages dropped, %d duplicated; %d hedges, %d retries, %d recovered, %d subqueries lost",
		seeds, total.queries, total.complete, total.incomplete, total.rejected, perQuery,
		total.dropped, total.duplicated, total.hedges, total.retries, total.recovered, total.lostSubqueries)
	if perQuery < 5 {
		t.Fatalf("%.1f results/query over the sweep: answers this thin make the exactness check vacuous", perQuery)
	}
}

// TestQueryArenasReturn runs the soak's fault mix — loss, duplication,
// retries, hedges, deadlines, crashes and joins, and on seed 4 admission
// rejects — and then lets every timer run out. At that quiescence no
// query may be live: every query arena the core made is back on its
// free list, none leaked to a hold nobody let go, and no handler found
// its query recycled under it (or let a hold go twice). The same holds
// fire-and-forget, where a lost message is dropped where it is lost.
func TestQueryArenasReturn(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaosRun(t, seed, chaosSoak, func(p *Platform) { checkArenas(t, p, chaosQueries) })
		})
	}
	t.Run("fire-and-forget", func(t *testing.T) {
		p, err := New(Options{Nodes: chaosNodes, Seed: 1, Faults: &FaultOptions{Drop: 0.05, Duplicate: 0.02}})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		rng := rand.New(rand.NewSource(1))
		data := make([]Vector, chaosObjects)
		for i := range data {
			data[i] = chaosVector(rng)
		}
		ix, err := AddIndex(p, EuclideanSpace("arenas", chaosDim, 0, 1), data, DenseMean, IndexOptions{SampleSize: 500})
		if err != nil {
			t.Fatal(err)
		}
		incomplete := 0
		for range chaosQueries {
			_, st, err := ix.RangeSearch(chaosVector(rng), 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Complete {
				incomplete++
			}
		}
		if incomplete == 0 {
			t.Fatal("no query lost a message: the fire-and-forget case is vacuous")
		}
		checkArenas(t, p, chaosQueries)
	})
}

// checkArenas lets every timer of p run out and then requires every
// query arena idle, at least one reused over queries queries, and no
// stale handler.
func checkArenas(t *testing.T, p *Platform, queries int) {
	t.Helper()
	p.rt.Sleep(time.Minute) // past the last retry, hedge and deadline
	made, idle := p.sys.QueryArenas()
	t.Logf("%d arenas made for %d queries, %d idle", made, queries, idle)
	if made == 0 || idle != made {
		t.Errorf("%d of %d query arenas idle at quiescence", idle, made)
	}
	if made >= queries {
		t.Errorf("%d arenas for %d queries: none was reused", made, queries)
	}
	if n := p.sys.StaleHandlers; n != 0 {
		t.Errorf("%d handlers found their query recycled", n)
	}
}

// chaosRun runs one seed under cfg and returns its counters and the
// latency of every admitted query, failing t on any broken promise. The
// soak's configuration promises the most: with every entry on three
// nodes, a Complete answer must be exact, and each seed must exercise
// what the soak means to. quiesce, when not nil, runs on the platform
// once every query has answered and every churn cycle has run.
func chaosRun(t testing.TB, seed int64, cfg chaosConfig, quiesce func(*Platform)) (chaosCounters, []time.Duration) {
	t.Helper()
	capped := seed%4 == 0
	opts := Options{
		Nodes:     chaosNodes,
		Seed:      seed,
		WireCodec: true,
		Faults:    &FaultOptions{Drop: cfg.drop, Duplicate: 0.02},
		Retry:     RetryConfig{MaxRetries: 3},
		Deadline:  10 * time.Second,
	}
	if cfg.hedge {
		opts.Hedge = HedgeConfig{Delay: 250 * time.Millisecond}
	}
	if capped {
		opts.MaxActiveQueries = chaosCap
	}
	p, err := New(opts)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	defer p.Close()

	rng := rand.New(rand.NewSource(seed + 7))
	data := make([]Vector, chaosObjects)
	for i := range data {
		data[i] = chaosVector(rng)
	}
	ix, err := AddIndex(p, EuclideanSpace("chaos", chaosDim, 0, 1), data, DenseMean,
		IndexOptions{SampleSize: 500})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	// Three copies of every entry: one-at-a-time churn never takes a
	// region's whole replica set, so complete answers stay possible.
	if cfg.copies > 1 {
		if err := ix.Replicate(cfg.copies); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}

	var (
		c                  chaosCounters
		latencies          []time.Duration
		inFlight, finished int
		cyclesDone         int
		quietCrashes       int
	)
	err = p.rt.Await(opTimeout, func(finish func()) error {
		settle := func() {
			if finished == chaosQueries && cyclesDone == chaosCycles {
				finish()
			}
		}
		var at time.Duration
		for i := 0; i < chaosQueries; i++ {
			at += time.Duration(rng.ExpFloat64() * float64(chaosGap))
			q, r := chaosVector(rng), 0.4+0.2*rng.Float64()
			want := chaosBruteForce(data, q, r)
			p.rt.Schedule(at, func() {
				inFlight++
				issued, rejected, admitted := p.rt.Now(), p.sys.AdmissionRejected, true
				err := p.sys.RangeQuery(ix.name, p.randomNode(), q, ix.mapCenter(q), r, core.QueryOpts{},
					func(qr *core.QueryResult) {
						inFlight--
						finished++
						c.queries++
						if admitted {
							latencies = append(latencies, p.rt.Now()-issued)
						}
						chaosCheck(t, seed, i, qr, want, cfg.copies > 1, &c)
						settle()
					})
				admitted = p.sys.AdmissionRejected == rejected
				if err != nil {
					t.Errorf("seed %d query %d: %v", seed, i, err)
				}
			})
		}
		// The churn cycles spread over the arrival window: a crash, then
		// a join half a cycle later.
		span := time.Duration(chaosQueries) * chaosGap
		for k := 0; k < chaosCycles; k++ {
			crashAt := span * time.Duration(2*k+1) / time.Duration(2*chaosCycles+1)
			p.rt.Schedule(crashAt, func() {
				if inFlight == 0 {
					quietCrashes++
				}
				p.Crash(1)
			})
			p.rt.Schedule(crashAt+span/time.Duration(2*chaosCycles+1), func() {
				p.Join(1)
				cyclesDone++
				settle()
			})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("seed %d: %d of %d queries finished, %d of %d churn cycles: %v",
			seed, finished, chaosQueries, cyclesDone, chaosCycles, err)
	}

	if quiesce != nil {
		quiesce(p)
	}
	rel, fs := p.Reliability(), p.Faults()
	c.rejected, c.retries, c.recovered, c.hedges = rel.AdmissionRejected, rel.RetriesIssued, rel.Recovered, rel.Hedges
	c.lostSubqueries = rel.Dropped
	c.dropped, c.duplicated = fs.MessagesDropped, fs.MessagesDuplicated
	if cfg != chaosSoak {
		return c, latencies
	}
	if c.dropped == 0 || c.duplicated == 0 {
		t.Errorf("seed %d: faults armed but %d messages dropped and %d duplicated", seed, c.dropped, c.duplicated)
	}
	if quietCrashes > 0 {
		t.Errorf("seed %d: %d of %d crashes found no query in flight", seed, quietCrashes, chaosCycles)
	}
	if capped && (c.rejected == 0 || 2*c.rejected >= chaosQueries) {
		t.Errorf("seed %d: admission cap %d rejected %d of %d queries, want a minority but some",
			seed, chaosCap, c.rejected, chaosQueries)
	}
	if !capped && c.rejected != 0 {
		t.Errorf("seed %d: %d queries rejected with no admission cap", seed, c.rejected)
	}
	return c, latencies
}

// chaosCheck holds one answer to the completeness contract: Complete
// means exactly the brute-force ids — when every entry has a live copy
// (replicated), which exact says; incomplete means a subset of them and
// a non-zero account of what is missing.
func chaosCheck(t testing.TB, seed int64, i int, qr *core.QueryResult, want []int, exact bool, c *chaosCounters) {
	got := make([]int, len(qr.Results))
	for j, res := range qr.Results {
		got[j] = int(res.Obj)
	}
	slices.Sort(got)
	c.results += len(got)
	if qr.Complete {
		c.complete++
		if !slices.Equal(got, want) {
			c.inexact++
			if exact {
				t.Errorf("seed %d query %d: Complete answer has %d ids, brute force %d", seed, i, len(got), len(want))
			}
		}
		return
	}
	c.incomplete++
	if qr.DroppedSubqueries == 0 && len(qr.Uncovered) == 0 {
		t.Errorf("seed %d query %d: incomplete answer with no dropped subquery and no uncovered region", seed, i)
	}
	for _, id := range got {
		if _, ok := slices.BinarySearch(want, id); !ok {
			t.Errorf("seed %d query %d: incomplete answer holds id %d, which brute force does not", seed, i, id)
			return
		}
	}
}

func chaosVector(rng *rand.Rand) Vector {
	v := make(Vector, chaosDim)
	for j := range v {
		v[j] = rng.Float64()
	}
	return v
}

// chaosBruteForce returns the sorted ids of every object within r of q.
func chaosBruteForce(data []Vector, q Vector, r float64) []int {
	var want []int
	for i, v := range data {
		if L2(q, v) <= r {
			want = append(want, i)
		}
	}
	return want
}

// BenchmarkChaosSweep runs the soak's workload, seeds 1–40, in the
// configurations that decide what Complete promises without replicas
// and whether hedging earns its keep:
//
//	go test -run '^$' -bench ChaosSweep -benchtime 1x .
//
// Per configuration it reports Complete answers (complete), those that
// differ from brute force (inexact), and the median latency of an
// admitted query in simulated seconds (p50_s). Every run is seeded, so
// the numbers repeat exactly; ns/op is the host's and means nothing.
func BenchmarkChaosSweep(b *testing.B) {
	const seeds = 40
	for _, cfg := range []chaosConfig{
		{0.05, 1, false}, {0.05, 1, true},
		{0.05, 3, false}, {0.05, 3, true},
		{0.15, 3, false}, {0.15, 3, true},
	} {
		b.Run(fmt.Sprintf("loss=%v/copies=%d/hedge=%v", cfg.drop, cfg.copies, cfg.hedge), func(b *testing.B) {
			for range b.N {
				var total chaosCounters
				var lat []time.Duration
				for seed := int64(1); seed <= seeds; seed++ {
					c, l := chaosRun(b, seed, cfg, nil)
					total.add(c)
					lat = append(lat, l...)
				}
				slices.Sort(lat)
				b.ReportMetric(float64(total.queries), "queries")
				b.ReportMetric(float64(total.complete), "complete")
				b.ReportMetric(float64(total.inexact), "inexact")
				b.ReportMetric(lat[len(lat)/2].Seconds(), "p50_s")
			}
		})
	}
}
