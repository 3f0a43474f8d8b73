package chord

import (
	"math/rand"
	"testing"
)

// Crashing nodes without any table refresh must not break lookups:
// NextHop skips dead entries and the successor lists provide the
// last-mile redundancy (the reason Chord keeps 16 successors).
func TestLookupSurvivesCrashesWithoutRefresh(t *testing.T) {
	eng, net, nodes := newTestNet(t, 128, DefaultConfig())
	net.BuildAllTables()
	rng := rand.New(rand.NewSource(31))
	// Crash 10% of the nodes, no FixAround, no rebuild.
	for i := 0; i < 12; i++ {
		victim := nodes[rng.Intn(len(nodes))]
		if !victim.Alive() {
			continue
		}
		if err := net.CrashNode(victim.ID()); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 100; trial++ {
		key := ID(rng.Uint64())
		var src *Node
		for src == nil || !src.Alive() {
			src = nodes[rng.Intn(len(nodes))]
		}
		want, err := net.SuccessorID(key)
		if err != nil {
			t.Fatal(err)
		}
		e := runLookup(eng, src, key, 40)
		if !e.found {
			t.Fatal("lookup hung after crashes")
		}
		if got := e.owner; got != want {
			t.Fatalf("lookup(%#x) = %#x, want %#x after crashes", key, got, want)
		}
	}
}

// With more crashes than the successor-list length in one region,
// FixAround restores correctness.
func TestFixAroundRepairsRegion(t *testing.T) {
	_, net, _ := newTestNet(t, 64, DefaultConfig())
	net.BuildAllTables()
	// Kill 8 consecutive ring nodes (a correlated regional failure).
	ring := append([]ID(nil), net.ring...)
	for i := 10; i < 18; i++ {
		if err := net.CrashNode(ring[i]); err != nil {
			t.Fatal(err)
		}
	}
	net.FixAround(ring[10])
	net.FixAround(ring[17])
	// Ownership of the dead region must have passed to the next
	// survivor.
	owner, err := net.SuccessorNode(ring[12])
	if err != nil {
		t.Fatal(err)
	}
	if !owner.Alive() {
		t.Fatal("owner not alive")
	}
	if !owner.OwnsKey(ring[12]) {
		t.Fatal("survivor does not own the dead region after FixAround")
	}
}
