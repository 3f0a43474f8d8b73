package core

import (
	"math/rand"
	"testing"
	"time"
)

func TestReplicateAllPlacesCopies(t *testing.T) {
	f := buildFixture(t, 32, 2000, 3, false)
	if err := f.sys.ReplicateAll("test-l2", 3); err != nil {
		t.Fatal(err)
	}
	// Total entries tripled (primary + 2 replicas).
	if got := f.sys.TotalEntries(); got != 3*2000 {
		t.Fatalf("entries = %d, want %d", got, 3*2000)
	}
	// Each node's replica copies live on successors of the key's
	// owner: every stored key is owned by this node or by one of its
	// at-most-2 predecessors-by-ownership.
	for _, in := range f.sys.Nodes() {
		for _, name := range in.st.Indexes() {
			keys, _ := viewCopy(in.st, name)
			for _, key := range keys {
				if in.node.OwnsKey(key) {
					continue
				}
				owner, err := f.sys.net.SuccessorNode(key)
				if err != nil {
					t.Fatal(err)
				}
				// This node must appear among the owner's first
				// successors.
				found := false
				for i, succ := range f.sys.nodes[owner.ID()].node.SuccessorList() {
					if i >= 2 {
						break
					}
					if succ == in.ID() {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("replica of key %#x on %#x, not a near successor of owner %#x",
						key, in.ID(), owner.ID())
				}
			}
		}
	}
}

func TestReplicationValidation(t *testing.T) {
	f := buildFixture(t, 16, 200, 2, false)
	if err := f.sys.ReplicateAll("nope", 2); err == nil {
		t.Fatal("expected unknown-index error")
	}
	if err := f.sys.ReplicateAll("test-l2", 1); err == nil {
		t.Fatal("expected replica-count error")
	}
	if err := f.sys.ReplicateAll("test-l2", 99); err == nil {
		t.Fatal("expected successor-list error")
	}
}

func TestReplicationExcludesLoadBalancing(t *testing.T) {
	f := buildFixture(t, 16, 500, 2, false)
	if err := f.sys.ReplicateAll("test-l2", 2); err != nil {
		t.Fatal(err)
	}
	if err := f.sys.EnableLoadBalancing(LBConfig{ProbeLevel: 4, Period: 30 * time.Second}); err == nil {
		t.Fatal("expected LB-vs-replication guard")
	}
	// And the other order.
	f2 := buildFixture(t, 16, 500, 2, false)
	if err := f2.sys.EnableLoadBalancing(LBConfig{ProbeLevel: 4, Period: 30 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := f2.sys.ReplicateAll("test-l2", 2); err == nil {
		t.Fatal("expected replication-vs-LB guard")
	}
}

// The headline property: with replication, crashing nodes costs no
// recall — the first replica is the new successor and answers in the
// primary's place, with NO republication.
func TestReplicationSurvivesCrashes(t *testing.T) {
	f := buildFixture(t, 48, 3000, 3, false)
	if err := f.sys.ReplicateAll("test-l2", 3); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	// Crash 6 random nodes (fewer than the replica chain can absorb
	// for most keys).
	for i := 0; i < 6; i++ {
		nodes := f.sys.Nodes()
		victim := nodes[rng.Intn(len(nodes))]
		if err := f.sys.net.CrashNode(victim.ID()); err != nil {
			t.Fatal(err)
		}
		f.sys.ForgetNode(victim.ID())
		f.sys.net.FixAround(victim.ID())
	}
	// Exact range queries must still be exact — no recovery step ran.
	misses := 0
	for trial := 0; trial < 15; trial++ {
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
		if out == nil {
			t.Fatal("query did not complete")
		}
		got := map[ObjectID]bool{}
		for _, res := range out.Results {
			got[res.Obj] = true
		}
		for obj := range want {
			if !got[obj] {
				misses++
			}
		}
		for obj := range got {
			if !want[obj] {
				t.Fatalf("false positive %d", obj)
			}
		}
	}
	if misses > 0 {
		t.Fatalf("%d objects missed despite 3-way replication", misses)
	}
}

// Without replication the same crash schedule loses entries — the
// contrast that motivates replication.
func TestNoReplicationLosesEntriesOnCrash(t *testing.T) {
	f := buildFixture(t, 48, 3000, 3, false)
	rng := rand.New(rand.NewSource(19))
	lost := 0
	for i := 0; i < 6; i++ {
		nodes := f.sys.Nodes()
		victim := nodes[rng.Intn(len(nodes))]
		lost += victim.Load()
		if err := f.sys.net.CrashNode(victim.ID()); err != nil {
			t.Fatal(err)
		}
		f.sys.ForgetNode(victim.ID())
		f.sys.net.FixAround(victim.ID())
	}
	if lost == 0 {
		t.Skip("crash schedule hit empty nodes")
	}
	if got := f.sys.TotalEntries(); got != 3000-lost {
		t.Fatalf("entries = %d, want %d", got, 3000-lost)
	}
}
