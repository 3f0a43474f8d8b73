package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/dataset"
	"landmarkdht/internal/indexspace"
	"landmarkdht/internal/landmark"
	"landmarkdht/internal/metric"
	"landmarkdht/internal/netmodel"
	"landmarkdht/internal/runtime"
	"landmarkdht/internal/runtime/simrt"
	"landmarkdht/internal/sim"
)

// seedStabilityTrace runs a small end-to-end workload — deploy, bulk
// load, overlay publishes, traced queries, replication, a mid-run
// crash with failover queries — entirely derived from one seed, and
// serializes everything observable (per-query stats and trace event
// sequences, result sets, system counters, engine state) into one
// string. The simulator's reproducibility contract says this string is
// a pure function of the seed.
//
// The workload deliberately crosses the paths this PR's linters guard:
// injected message loss and jitter (engine RNG draws per message),
// retransmission timers, replica repair (map-heavy placement code),
// and multi-scheme store iteration.
//
// With resilient set, the workload additionally turns on the query-
// resilience machinery — per-query deadlines, subquery hedging to
// successor replicas, and query/ack duplication — whose timers and
// random draws must be just as seed-stable.
func seedStabilityTrace(t *testing.T, seed int64, resilient bool) string {
	t.Helper()
	const (
		nNodes = 24
		nData  = 600
	)
	eng := sim.NewEngine(seed)
	model, err := netmodel.NewSyntheticKing(netmodel.KingConfig{N: nNodes, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Retry = RetryConfig{MaxRetries: 3, Timeout: 400 * time.Millisecond}
	cfg.Chord.Faults = &runtime.FaultPolicy{Drop: 0.05, Jitter: 20 * time.Millisecond,
		SpikeProb: 0.02, SpikeDelay: 150 * time.Millisecond}
	if resilient {
		cfg.Chord.Faults.Duplicate = 0.05
		cfg.Deadline = 20 * time.Second
		cfg.Hedge = HedgeConfig{Delay: 200 * time.Millisecond}
	}
	sys := NewSystem(simrt.New(eng), model, cfg)

	rng := rand.New(rand.NewSource(seed + 2))
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
		N: nData, Dim: 2, Lo: 0, Hi: 100, Clusters: 4, Dev: 6, Seed: seed + 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	space := metric.EuclideanSpace("det-l2", 2, 0, 100)
	lms, err := landmark.Greedy(rng, data[:200], 3, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := indexspace.New(space, lms)
	if err != nil {
		t.Fatal(err)
	}
	part, err := emb.Partitioner(false)
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
	entries := make([]Entry, 0, nData)
	for i, v := range data[:nData-20] {
		entries = append(entries, Entry{Obj: ObjectID(i), Point: emb.Map(v)})
	}
	if err := sys.BulkLoad(ix.Name, entries); err != nil {
		t.Fatal(err)
	}
	// The last entries travel through the overlay (lookup + reliable
	// delivery under injected loss).
	for i := nData - 20; i < nData; i++ {
		e := Entry{Obj: ObjectID(i), Point: emb.Map(data[i])}
		if err := sys.Publish(ix.Name, ids[rng.Intn(nNodes)], e, nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if err := sys.ReplicateAll(ix.Name, 2); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	record := func(qr *QueryResult) {
		fmt.Fprintf(&b, "stats=%+v results=%v\n", qr.Stats, qr.Results)
		if qr.Trace != nil {
			for _, ev := range qr.Trace.Events {
				fmt.Fprintf(&b, "  %s\n", ev)
			}
		}
	}
	runQuery := func(qi int) {
		q := data[rng.Intn(nData)].Clone()
		q[0] += rng.NormFloat64()
		q[1] += rng.NormFloat64()
		r := 3 + rng.Float64()*10
		fmt.Fprintf(&b, "query %d r=%.6f\n", qi, r)
		err := sys.RangeQuery(ix.Name, ids[rng.Intn(nNodes)], q, emb.Map(q), r,
			QueryOpts{Trace: true}, record)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	for qi := 0; qi < 6; qi++ {
		runQuery(qi)
	}
	// Crash a node mid-run: replica repair re-places its entries and
	// the remaining queries exercise successor failover.
	if err := sys.CrashNode(ids[rng.Intn(nNodes)]); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for qi := 6; qi < 12; qi++ {
		runQuery(qi)
	}
	fmt.Fprintf(&b, "loads=%v total=%d dropped=%d retries=%d recovered=%d injected=%d hedges=%d duplicated=%d\n",
		sys.Loads(), sys.TotalEntries(),
		sys.DroppedSubqueries, sys.RetriesIssued, sys.RecoveredSubqueries,
		injectedDrops(sys), sys.HedgesIssued, sys.Network().Traffic().Duplicated)
	fmt.Fprintf(&b, "engine now=%v processed=%d\n", eng.Now(), eng.Processed())
	return b.String()
}

// TestSeedStability is the determinism regression test: identical seeds
// must yield byte-identical traces, and a different seed must not (so
// the assertion is not vacuous).
func TestSeedStability(t *testing.T) {
	first := seedStabilityTrace(t, 42, false)
	second := seedStabilityTrace(t, 42, false)
	if first != second {
		t.Fatalf("same seed produced different traces:\n%s", firstDiff(first, second))
	}
	other := seedStabilityTrace(t, 43, false)
	if other == first {
		t.Fatal("different seeds produced identical traces; the stability assertion is vacuous")
	}
	// With resilience off, nothing in the trace may mention its
	// machinery: the deadline/hedge timers and duplication draws must
	// not exist, let alone fire.
	for _, s := range []string{string(TraceHedge), string(TraceDeadline)} {
		if strings.Contains(first, " "+s+" ") {
			t.Fatalf("resilience-free trace mentions %q", s)
		}
	}
	if !strings.Contains(first, "hedges=0 duplicated=0") {
		t.Fatal("resilience-free run issued hedges or duplications")
	}
}

// TestSeedStabilityResilient repeats the seed-stability contract with
// deadlines, hedging and message duplication switched on: the extra
// timers and random draws must be a pure function of the seed too, and
// must actually change the execution (the knobs are not dead).
func TestSeedStabilityResilient(t *testing.T) {
	first := seedStabilityTrace(t, 42, true)
	second := seedStabilityTrace(t, 42, true)
	if first != second {
		t.Fatalf("same seed produced different traces:\n%s", firstDiff(first, second))
	}
	plain := seedStabilityTrace(t, 42, false)
	if plain == first {
		t.Fatal("resilience knobs changed nothing; the variant is vacuous")
	}
}

// firstDiff renders the first diverging line of two multi-line strings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  run1: %s\n  run2: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
