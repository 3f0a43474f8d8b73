package core

import (
	"testing"
	"time"

	"landmarkdht/internal/metric"
	"landmarkdht/internal/runtime"
)

// TestDeadlineExpiryAccountsUncovered drives a query into a network
// that loses every message while the reliability layer's timeout is far
// beyond the query deadline: the deadline must fire first, finishing
// the query with whatever arrived, Complete=false, and an Uncovered
// list that accounts for every missing in-range object.
func TestDeadlineExpiryAccountsUncovered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Chord.Faults = &runtime.FaultPolicy{Drop: 1.0}
	// Retries would only detect the loss after 10s; the 2s deadline
	// must win and surface the outstanding regions.
	cfg.Retry = RetryConfig{MaxRetries: 5, Timeout: 10 * time.Second}
	f := buildFixtureCfg(t, 32, 1500, 3, false, cfg)

	q := metric.Vector{50, 50}
	const r = 30
	qr := f.runRange(t, 0, q, r, QueryOpts{Deadline: 2 * time.Second})

	if qr.Complete {
		t.Fatal("query over a fully lossy network reported Complete")
	}
	if len(qr.Uncovered) == 0 {
		t.Fatal("incomplete deadline expiry reported no uncovered regions")
	}
	// The results that did arrive must be a correct subset...
	want := f.bruteRange(q, r)
	got := map[ObjectID]bool{}
	for _, res := range qr.Results {
		if !want[res.Obj] {
			t.Fatalf("result %d is not within range %v of %v", res.Obj, r, q)
		}
		got[res.Obj] = true
	}
	// ...and every missing in-range object must lie inside one of the
	// uncovered regions — the accounting may not lose track of any part
	// of the query.
	for obj := range want {
		if got[obj] {
			continue
		}
		point := f.emb.Map(f.data[obj])
		covered := false
		for _, reg := range qr.Uncovered {
			if reg.Contains(point) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("missing in-range object %d (point %v) lies in no uncovered region", obj, point)
		}
	}
}

// TestHedgeRecoversAndMergesOnce runs lossy queries with hedging to the
// successor replica: hedges must fire, every query must still complete
// with the exact answer, and the duplicate answers a hedge provokes
// (both the original's retry and the hedge can respond) must merge
// exactly once.
func TestHedgeRecoversAndMergesOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Chord.Faults = &runtime.FaultPolicy{Drop: 0.25}
	cfg.Retry = RetryConfig{MaxRetries: 3, Timeout: 2 * time.Second}
	// A cap far above the subquery count: every lost shipment must be
	// eligible for a hedge, so the only way to lose a region is both
	// independent chains exhausting — negligible at this loss rate.
	cfg.Hedge = HedgeConfig{Delay: 500 * time.Millisecond, MaxPerQuery: 4096}
	f := buildFixtureCfg(t, 32, 1500, 3, false, cfg)
	if err := f.sys.ReplicateAll("test-l2", 2); err != nil {
		t.Fatal(err)
	}

	queries := []metric.Vector{{50, 50}, {25, 75}, {75, 25}, {40, 60}, {60, 40}, {10, 90}}
	for _, q := range queries {
		const r = 25
		qr := f.runRange(t, 0, q, r, QueryOpts{})
		if !qr.Complete {
			t.Fatalf("hedged query at %v did not complete (dropped %d, uncovered %d)",
				q, qr.DroppedSubqueries, len(qr.Uncovered))
		}
		want := f.bruteRange(q, r)
		if len(qr.Results) != len(want) {
			t.Fatalf("hedged query at %v: %d results, brute force %d", q, len(qr.Results), len(want))
		}
		seen := map[ObjectID]bool{}
		for _, res := range qr.Results {
			if !want[res.Obj] {
				t.Fatalf("hedged query at %v returned out-of-range object %d", q, res.Obj)
			}
			if seen[res.Obj] {
				t.Fatalf("hedged query at %v returned object %d twice: duplicate answers merged twice", q, res.Obj)
			}
			seen[res.Obj] = true
		}
	}
	if f.sys.HedgesIssued == 0 {
		t.Fatal("30% loss with a 500ms hedge delay issued no hedges; the hedging path is dead")
	}
}

// TestSuspicionDecaysNeverBlacklists checks the two suspicion
// invariants: the counter builds and decays through the suspect /
// unsuspect pair, and a heavily suspected node keeps serving — each
// successful answer decays its counter, so full-space queries stay
// exact and eventually clear the suspicion entirely.
func TestSuspicionDecaysNeverBlacklists(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hedge = HedgeConfig{Delay: 500 * time.Millisecond}
	f := buildFixtureCfg(t, 16, 800, 3, false, cfg)

	victim := f.ids[3]
	for i := 0; i < 5; i++ {
		f.sys.suspect(victim)
	}
	if got := f.sys.suspicion[victim]; got != 5 {
		t.Fatalf("suspicion after 5 suspects = %d, want 5", got)
	}
	f.sys.unsuspect(victim)
	if got := f.sys.suspicion[victim]; got != 4 {
		t.Fatalf("suspicion after unsuspect = %d, want 4", got)
	}

	// Far beyond the threshold: without decay this node would never be
	// contacted again.
	for i := 0; i < 20; i++ {
		f.sys.suspect(victim)
	}
	q := metric.Vector{50, 50}
	r := 150.0 // covers the whole [0,100]² space: every node answers
	for i := 0; i < 30; i++ {
		qr := f.runRange(t, i%16, q, r, QueryOpts{})
		if !qr.Complete {
			t.Fatalf("query %d under suspicion did not complete", i)
		}
		if len(qr.Results) != len(f.data) {
			t.Fatalf("query %d under suspicion: %d results, want all %d", i, len(qr.Results), len(f.data))
		}
	}
	if got := f.sys.suspicion[victim]; got >= 24 {
		t.Fatalf("suspicion never decayed: still %d after 30 answered queries", got)
	}
}

// TestSuspicionCounterLifecycle covers the counter edge cases directly.
func TestSuspicionCounterLifecycle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hedge = HedgeConfig{Delay: time.Second}
	f := buildFixtureCfg(t, 8, 100, 3, false, cfg)
	id := f.ids[0]

	f.sys.unsuspect(id) // decay of an unsuspected node is a no-op
	if _, ok := f.sys.suspicion[id]; ok {
		t.Fatal("unsuspect created a suspicion entry")
	}
	f.sys.suspect(id)
	f.sys.unsuspect(id)
	if _, ok := f.sys.suspicion[id]; ok {
		t.Fatal("suspicion entry not removed when the counter reached zero")
	}

	// Hedging disabled: suspect must be inert, so the default path
	// carries no suspicion state at all.
	cfg2 := DefaultConfig()
	f2 := buildFixtureCfg(t, 8, 100, 3, false, cfg2)
	f2.sys.suspect(f2.ids[0])
	if len(f2.sys.suspicion) != 0 {
		t.Fatal("suspect tracked state with hedging disabled")
	}
}
