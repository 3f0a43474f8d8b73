package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/lph"
	"landmarkdht/internal/metric"
	"landmarkdht/internal/runtime"
)

// resultSet collects the returned object IDs for set comparison.
func resultSet(qr *QueryResult) map[ObjectID]bool {
	out := map[ObjectID]bool{}
	for _, res := range qr.Results {
		out[res.Obj] = true
	}
	return out
}

// With retries enabled, heavy injected loss must cost no recall: every
// subquery and result eventually gets through, and the recovery
// counters show the reliability layer did real work.
func TestRetriesRecoverFromLoss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Chord.Faults = &runtime.FaultPolicy{Drop: 0.15}
	cfg.Retry = RetryConfig{MaxRetries: 6}
	f := buildFixtureCfg(t, 32, 2000, 3, false, cfg)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		q := f.data[rng.Intn(len(f.data))].Clone()
		q[0] += rng.NormFloat64()
		q[1] += rng.NormFloat64()
		r := 2 + rng.Float64()*12
		want := f.bruteRange(q, r)
		got := resultSet(f.runRange(t, rng.Intn(32), q, r, QueryOpts{}))
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d (r=%v)", trial, len(got), len(want), r)
		}
		for obj := range want {
			if !got[obj] {
				t.Fatalf("trial %d: missing object %d", trial, obj)
			}
		}
	}
	if f.sys.RecoveredSubqueries == 0 {
		t.Fatal("15% loss produced zero recovered deliveries — retries never fired")
	}
	if f.sys.RetriesIssued < f.sys.RecoveredSubqueries {
		t.Fatalf("RetriesIssued %d < RecoveredSubqueries %d", f.sys.RetriesIssued, f.sys.RecoveredSubqueries)
	}
	if f.sys.DroppedSubqueries != 0 {
		t.Fatalf("%d subqueries dropped for good despite retries", f.sys.DroppedSubqueries)
	}
	if injectedDrops(f.sys) == 0 {
		t.Fatal("fault policy dropped nothing — test exercised no loss")
	}
}

// The fire-and-forget contrast: the same loss rate with retries
// disabled permanently drops subqueries (queries still terminate —
// the loss callback keeps the pending count finite).
func TestFireAndForgetDropsUnderLoss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Chord.Faults = &runtime.FaultPolicy{Drop: 0.15}
	f := buildFixtureCfg(t, 32, 2000, 3, false, cfg)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		q := f.data[rng.Intn(len(f.data))].Clone()
		q[0] += rng.NormFloat64()
		q[1] += rng.NormFloat64()
		r := 2 + rng.Float64()*12
		// Must terminate despite losses; results may be incomplete.
		f.runRange(t, rng.Intn(32), q, r, QueryOpts{})
	}
	if f.sys.DroppedSubqueries == 0 {
		t.Fatal("15% loss with no retries dropped zero subqueries")
	}
	if f.sys.RetriesIssued != 0 || f.sys.RecoveredSubqueries != 0 {
		t.Fatalf("retry counters moved (%d issued, %d recovered) with retries disabled",
			f.sys.RetriesIssued, f.sys.RecoveredSubqueries)
	}
}

// TestNaiveLostLookupFinishes runs the §3.3 naive router under loss
// with no deadline: every query must still finish. Without retries a
// piece whose lookup loses a hop is dropped (counted in
// DroppedSubqueries, its region Uncovered) rather than left waiting;
// with them it is retransmitted like any query message, so no more naive
// queries come back incomplete than tree-routed ones from the same
// sources. Every answer is a subset of brute force, and exact when
// complete, and at quiescence every query arena is back on the free
// list.
func TestNaiveLostLookupFinishes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drop  float64
		retry RetryConfig
	}{
		{"drop=0.02", 0.02, RetryConfig{}},
		{"drop=0.2", 0.2, RetryConfig{}},
		{"drop=0.2,retries=6", 0.2, RetryConfig{MaxRetries: 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Chord.Faults = &runtime.FaultPolicy{Drop: tc.drop}
			cfg.Retry = tc.retry
			f := buildFixtureCfg(t, 64, 2000, 3, false, cfg)
			const queries, r = 40, 20.0
			rng := rand.New(rand.NewSource(11))
			finished, incomplete, treeIncomplete := 0, 0, 0
			for i := 0; i < queries; i++ {
				q := f.data[rng.Intn(len(f.data))]
				src := rng.Intn(len(f.ids))
				var out *QueryResult
				if err := f.sys.NaiveRangeQuery("test-l2", f.ids[src], q, f.emb.Map(q), r, QueryOpts{},
					func(qr *QueryResult) { out = qr }); err != nil {
					t.Fatal(err)
				}
				f.eng.Run()
				if out == nil {
					continue
				}
				finished++
				want, got := f.bruteRange(q, r), resultSet(out)
				for obj := range got {
					if !want[obj] {
						t.Fatalf("query %d: object %d is not within %v", i, obj, r)
					}
				}
				if !out.Complete {
					incomplete++
					if len(out.Uncovered) == 0 {
						t.Errorf("query %d: incomplete with nothing Uncovered", i)
					}
				} else if len(got) != len(want) {
					t.Errorf("query %d: complete with %d results, want %d", i, len(got), len(want))
				}
				if tc.retry.Enabled() {
					if tree := f.runRange(t, src, q, r, QueryOpts{}); !tree.Complete {
						treeIncomplete++
					}
				}
			}
			if finished != queries {
				t.Fatalf("%d of %d naive queries never finished", queries-finished, queries)
			}
			lost := f.sys.Network().Traffic().Dropped[chord.KindLookup]
			t.Logf("%d lookup hops lost; %d of %d naive queries incomplete", lost, incomplete, queries)
			switch {
			case lost == 0:
				t.Fatal("no lookup hop was lost: the loss never reached a lookup")
			case !tc.retry.Enabled() && incomplete == 0:
				t.Fatalf("%d lookup hops lost and no query incomplete", lost)
			case tc.retry.Enabled() && incomplete > treeIncomplete:
				t.Errorf("%d of %d naive queries incomplete under retries, %d tree-routed", incomplete, queries, treeIncomplete)
			case tc.retry.Enabled() && f.sys.RecoveredSubqueries == 0:
				t.Error("no retransmission delivered anything")
			}
			if made, idle := f.sys.QueryArenas(); made != idle {
				t.Errorf("%d query arenas made, %d idle at quiescence", made, idle)
			}
			if f.sys.StaleHandlers != 0 {
				t.Errorf("StaleHandlers = %d", f.sys.StaleHandlers)
			}
		})
	}
}

// regionKey returns the ring position owning q's index entry.
func (f *fixture) regionKey(t *testing.T, q metric.Vector) lph.Key {
	t.Helper()
	ix, err := f.sys.lookupIndex("test-l2")
	if err != nil {
		t.Fatal(err)
	}
	return ix.Part.Ring(ix.Part.Hash(f.emb.Map(q)))
}

// liveSource picks a deterministic live query source.
func (f *fixture) liveSource() chord.ID {
	return f.sys.Nodes()[0].ID()
}

// Crashing the primary for a key must cost no recall when the index is
// replicated: CrashNode repairs the replica placement onto the new
// successor set, so the first replica answers in the primary's place.
// Repeatedly — each crash is followed by an automatic repair that
// restores the full replication factor.
func TestCrashPrimaryReplicaAnswers(t *testing.T) {
	f := buildFixture(t, 48, 3000, 3, false)
	if err := f.sys.ReplicateAll("test-l2", 3); err != nil {
		t.Fatal(err)
	}
	q := f.data[10]
	r := 6.0
	want := f.bruteRange(q, r)
	key := f.regionKey(t, q)

	check := func(round int) {
		var out *QueryResult
		err := f.sys.RangeQuery("test-l2", f.liveSource(), q, f.emb.Map(q), r, QueryOpts{}, func(qr *QueryResult) { out = qr })
		if err != nil {
			t.Fatal(err)
		}
		f.eng.Run()
		if out == nil {
			t.Fatalf("round %d: query did not complete", round)
		}
		got := resultSet(out)
		if len(got) != len(want) {
			t.Fatalf("round %d: got %d results, want %d", round, len(got), len(want))
		}
		for obj := range want {
			if !got[obj] {
				t.Fatalf("round %d: missing object %d", round, obj)
			}
		}
	}

	check(0)
	// Crash four successive primaries of the query's home region. With
	// automatic repair this can continue far past the replication
	// factor — each crash re-establishes 3 live copies.
	for round := 1; round <= 4; round++ {
		owner, err := f.sys.net.SuccessorNode(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.sys.CrashNode(owner.ID()); err != nil {
			t.Fatal(err)
		}
		check(round)
	}
}

// Loss, retries, replication, and mid-query primary crashes together:
// the subquery aimed at a dying primary times out, fails over to the
// repaired successor, and the query still returns exact results.
func TestRetryFailoverToReplicaUnderChurn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Chord.Faults = &runtime.FaultPolicy{Drop: 0.10}
	cfg.Retry = RetryConfig{MaxRetries: 5}
	f := buildFixtureCfg(t, 48, 3000, 3, false, cfg)
	if err := f.sys.ReplicateAll("test-l2", 3); err != nil {
		t.Fatal(err)
	}
	q := f.data[42]
	r := 8.0
	want := f.bruteRange(q, r)
	key := f.regionKey(t, q)

	for round := 0; round < 3; round++ {
		var out *QueryResult
		err := f.sys.RangeQuery("test-l2", f.liveSource(), q, f.emb.Map(q), r, QueryOpts{}, func(qr *QueryResult) { out = qr })
		if err != nil {
			t.Fatal(err)
		}
		// Kill the region's current primary while the query is in
		// flight; its repair runs synchronously at the crash instant.
		f.eng.Schedule(30*time.Millisecond, func() {
			owner, err := f.sys.net.SuccessorNode(key)
			if err != nil {
				return
			}
			if owner.ID() == f.liveSource() {
				return // keep the querier alive
			}
			_ = f.sys.CrashNode(owner.ID())
		})
		f.eng.Run()
		if out == nil {
			t.Fatalf("round %d: query did not complete", round)
		}
		got := resultSet(out)
		if len(got) != len(want) {
			t.Fatalf("round %d: got %d results, want %d", round, len(got), len(want))
		}
		for obj := range want {
			if !got[obj] {
				t.Fatalf("round %d: missing object %d", round, obj)
			}
		}
	}
	if f.sys.DroppedSubqueries != 0 {
		t.Fatalf("%d subqueries dropped for good despite retries + replication", f.sys.DroppedSubqueries)
	}
	if f.sys.RecoveredSubqueries == 0 {
		t.Fatal("no recovered deliveries under 10% loss + crashes")
	}
}

// ReplicateAll must be idempotent: a second invocation is a no-op —
// same entry placement, no additional transfer traffic.
func TestReplicateAllIdempotent(t *testing.T) {
	f := buildFixture(t, 32, 2000, 3, false)
	if err := f.sys.ReplicateAll("test-l2", 3); err != nil {
		t.Fatal(err)
	}
	entries := f.sys.TotalEntries()
	if entries != 3*2000 {
		t.Fatalf("entries after first ReplicateAll = %d, want %d", entries, 3*2000)
	}
	transfer := f.sys.Network().Traffic().Bytes[chord.KindTransfer]
	if transfer == 0 {
		t.Fatal("first ReplicateAll charged no transfer traffic")
	}
	if err := f.sys.ReplicateAll("test-l2", 3); err != nil {
		t.Fatal(err)
	}
	if got := f.sys.TotalEntries(); got != entries {
		t.Fatalf("second ReplicateAll changed entry count: %d -> %d", entries, got)
	}
	if got := f.sys.Network().Traffic().Bytes[chord.KindTransfer]; got != transfer {
		t.Fatalf("second ReplicateAll charged %d extra transfer bytes", got-transfer)
	}
}

// faultRun drives one full scenario — loss + jitter + spikes + retries
// + scheduled crashes — and returns a fingerprint of everything
// observable: per-query result sets, reliability counters, traffic,
// and the final simulated clock.
func faultRun(t *testing.T) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Chord.Faults = &runtime.FaultPolicy{Drop: 0.10, Jitter: 30 * time.Millisecond,
		SpikeProb: 0.01, SpikeDelay: 300 * time.Millisecond}
	cfg.Retry = RetryConfig{MaxRetries: 4}
	f := buildFixtureCfg(t, 32, 2000, 3, false, cfg)
	if err := f.sys.ReplicateAll("test-l2", 2); err != nil {
		t.Fatal(err)
	}

	var fp string
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		q := f.data[rng.Intn(len(f.data))].Clone()
		q[0] += rng.NormFloat64()
		r := 2 + rng.Float64()*10
		var out *QueryResult
		err := f.sys.RangeQuery("test-l2", f.liveSource(), q, f.emb.Map(q), r, QueryOpts{}, func(qr *QueryResult) { out = qr })
		if err != nil {
			t.Fatal(err)
		}
		if trial == 3 || trial == 7 {
			// Crash the 5th node in ring order mid-query — identical
			// victim selection in both runs.
			f.eng.Schedule(40*time.Millisecond, func() {
				nodes := f.sys.Nodes()
				victim := nodes[5]
				if victim.ID() == f.liveSource() {
					victim = nodes[6]
				}
				_ = f.sys.CrashNode(victim.ID())
			})
		}
		f.eng.Run()
		if out == nil {
			t.Fatalf("trial %d: query did not complete", trial)
		}
		objs := make([]int, 0, len(out.Results))
		for _, res := range out.Results {
			objs = append(objs, int(res.Obj))
		}
		sort.Ints(objs)
		fp += fmt.Sprintf("q%d:%v hops=%d retries=%d\n", trial, objs, out.Stats.Hops, out.Stats.Retries)
	}
	tr := f.sys.Network().Traffic()
	fp += fmt.Sprintf("dropped=%d retrans=%d recovered=%d faultdrops=%d traffic=%v now=%d\n",
		f.sys.DroppedSubqueries, f.sys.RetriesIssued, f.sys.RecoveredSubqueries,
		injectedDrops(f.sys), tr, f.eng.Now())
	return fp
}

// Two runs with the same seed and an active fault plan must be
// byte-identical — the whole fault layer draws from the engine RNG.
func TestFaultInjectionDeterministic(t *testing.T) {
	a := faultRun(t)
	b := faultRun(t)
	if a != b {
		t.Fatalf("same-seed fault runs diverged:\n--- run A ---\n%s--- run B ---\n%s", a, b)
	}
}

// TestDuplicatedMessagesSettleOnce sends every query and ack message
// twice. A copy is the same message record, so it finds its units
// delivered and does nothing: each unit's token is settled exactly once,
// and every query reads as it does without duplicates — the same
// results, candidates, result messages, hops and index nodes — in the
// fire-and-forget, wire, retry and hedged modes.
func TestDuplicatedMessagesSettleOnce(t *testing.T) {
	modes := []struct {
		name string
		set  func(*Config)
	}{
		{"fire-and-forget", func(*Config) {}},
		{"wire", func(c *Config) { c.EncodeWire = true }},
		{"retry", func(c *Config) { c.Retry = RetryConfig{MaxRetries: 3} }},
		{"hedge", func(c *Config) {
			c.Hedge = HedgeConfig{Delay: 150 * time.Millisecond}
			c.Deadline = time.Minute
		}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			var runs [2][]string
			for i, dup := range []float64{0, 1} {
				cfg := DefaultConfig()
				mode.set(&cfg)
				if dup > 0 {
					cfg.Chord.Faults = &runtime.FaultPolicy{Duplicate: dup}
				}
				f := buildFixtureCfg(t, 32, 2000, 3, false, cfg)
				f.sys.index["test-l2"].MaxDist = 200
				rng := rand.New(rand.NewSource(5))
				for trial := 0; trial < 20; trial++ {
					q := f.data[rng.Intn(len(f.data))].Clone()
					q[0] += rng.NormFloat64()
					r := 2 + rng.Float64()*12
					qr := f.runRange(t, rng.Intn(32), q, r, QueryOpts{})
					if !qr.Complete {
						t.Fatalf("dup %v, trial %d: incomplete (%d dropped)", dup, trial, qr.DroppedSubqueries)
					}
					if mode.name != "wire" {
						if got, want := resultSet(qr), f.bruteRange(q, r); len(got) != len(want) {
							t.Fatalf("dup %v, trial %d: %d results, want %d", dup, trial, len(got), len(want))
						}
					}
					st := qr.Stats
					runs[i] = append(runs[i], fmt.Sprintf("%v cands=%d rmsgs=%d qmsgs=%d hops=%d nodes=%d hedges=%d",
						qr.Results, st.Candidates, st.ResultMsgs, st.QueryMsgs, st.Hops, st.IndexNodes, st.Hedges))
				}
				if dup > 0 && f.sys.Network().Traffic().Duplicated == 0 {
					t.Fatal("the fault policy duplicated nothing")
				}
			}
			for trial := range runs[0] {
				if runs[0][trial] != runs[1][trial] {
					t.Fatalf("trial %d:\nwithout duplicates %s\nwith duplicates    %s", trial, runs[0][trial], runs[1][trial])
				}
			}
		})
	}
}

// injectedDrops sums the messages the fault policy dropped.
func injectedDrops(sys *System) int64 {
	var n int64
	for _, d := range sys.Network().Traffic().Dropped {
		n += d
	}
	return n
}

// cannotBeLost names the handler tables of System.handlers without a
// Lost, each with the reason its message's loss needs no handler.
var cannotBeLost = map[string]string{
	"publishAck": "the entry's retry timer covers a lost ack; the entry is stored already",
	"chunk":      "the stream's idle round resends a lost chunk (internal/xfer)",
	"chunkAck":   "the stream's idle round resends the chunk a lost ack leaves unacknowledged",
}

// TestEveryHandlerHearsItsLoss walks every chord.Handlers and
// chord.Lookup in System.handlers: each has a Lost, so its sender hears
// of a lost message, or is named in cannotBeLost.
func TestEveryHandlerHearsItsLoss(t *testing.T) {
	h := reflect.ValueOf(newMessageHandlers())
	handlers, lookups := reflect.TypeOf(chord.Handlers{}), reflect.TypeOf(chord.Lookup{})
	seen := 0
	for i := 0; i < h.NumField(); i++ {
		name, f := h.Type().Field(i).Name, h.Field(i)
		if f.Type() != handlers && f.Type() != lookups {
			t.Errorf("handlers.%s is a %v, neither chord.Handlers nor chord.Lookup", name, f.Type())
			continue
		}
		seen++
		_, exempt := cannotBeLost[name]
		switch lost := !f.FieldByName("Lost").IsNil(); {
		case !lost && !exempt:
			t.Errorf("handlers.%s has no Lost: its sender never hears of a lost message", name)
		case lost && exempt:
			t.Errorf("handlers.%s has a Lost but is listed in cannotBeLost", name)
		}
	}
	for name := range cannotBeLost {
		if !h.FieldByName(name).IsValid() {
			t.Errorf("cannotBeLost names handlers.%s, which does not exist", name)
		}
	}
	if seen == 0 {
		t.Fatal("no handler tables found")
	}
}
