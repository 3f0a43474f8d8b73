package chord

import (
	"math/rand"
	"slices"
	"testing"
)

// nextHopReference is NextHop as it was before the table was sorted:
// every successor and all 64 fingers, a liveness probe for each, a
// second one to tell an unfilled finger from node 0.
func nextHopReference(nd *Node, key ID) ID {
	best := nd.id
	bestDist := Dist(nd.id, key)
	consider := func(c ID) {
		if c == key {
			return
		}
		if _, live := nd.net.nodes[c]; !live {
			return
		}
		if d := Dist(c, key); d < bestDist {
			best, bestDist = c, d
		}
	}
	for _, s := range nd.succ {
		consider(s)
	}
	for _, f := range nd.fingers {
		if f != 0 || nd.net.Node(0) != nil {
			consider(f)
		}
	}
	return best
}

// checkTable holds RoutingTable to its definition: distinct ids, in
// strictly ascending offset from the node, the same set as succ ∪
// fingers. A table left stale by a write to either fails here.
func checkTable(t *testing.T, nd *Node, phase string) {
	t.Helper()
	got := nd.RoutingTable()
	for i := 1; i < len(got); i++ {
		if got[i-1]-nd.id >= got[i]-nd.id {
			t.Fatalf("%s: node %#x table %x is not strictly clockwise from the node", phase, nd.id, got)
		}
	}
	want := slices.Concat(nd.succ, nd.fingers[:])
	slices.Sort(want)
	want = slices.Compact(want)
	if sorted := slices.Sorted(slices.Values(got)); !slices.Equal(sorted, want) {
		t.Fatalf("%s: node %#x table %x, succ ∪ fingers %x", phase, nd.id, sorted, want)
	}
}

// checkNextHops compares NextHop with the reference at every node ever
// created, crashed ones included (their tables are as stale as tables
// get), on random keys and on the keys where a choice flips: each table
// entry and its neighbours, the node itself, the ends of the ring.
func checkNextHops(t *testing.T, rng *rand.Rand, nodes []*Node, phase string) {
	t.Helper()
	for _, nd := range nodes {
		checkTable(t, nd, phase)
		keys := []ID{0, 1, ^ID(0), nd.id, nd.id - 1, nd.id + 1}
		for _, c := range nd.RoutingTable() {
			keys = append(keys, c, c-1, c+1)
		}
		for i := 0; i < 40; i++ {
			keys = append(keys, ID(rng.Uint64()))
		}
		for _, key := range keys {
			if got, want := nd.NextHop(key), nextHopReference(nd, key); got != want {
				t.Fatalf("%s: node %#x NextHop(%#x) = %#x, reference %#x", phase, nd.id, key, got, want)
			}
		}
	}
}

func TestNextHopMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		n    int
		pns  bool
		zero bool // a node with id 0 joins: the id an unfilled finger holds
	}{
		{n: 1}, {n: 2, pns: true}, {n: 3, zero: true}, {n: 17, pns: true}, {n: 60, zero: true}, {n: 200, pns: true, zero: true},
	} {
		cfg := DefaultConfig()
		cfg.PNS = tc.pns
		_, net, nodes := newTestNet(t, tc.n+40, cfg) // the latency model has hosts to spare for the joiners
		rng := rand.New(rand.NewSource(int64(tc.n)))
		for _, nd := range nodes[tc.n:] {
			if err := net.RemoveNode(nd.id); err != nil {
				t.Fatal(err)
			}
		}
		nodes = nodes[:tc.n]
		checkNextHops(t, rng, nodes, "empty tables")
		net.BuildAllTables()
		checkNextHops(t, rng, nodes, "stabilized")

		host := tc.n
		join := func(id ID, fix bool) {
			nd, err := net.AddNode(id, host)
			if err != nil {
				t.Fatal(err)
			}
			host++
			nodes = append(nodes, nd)
			if fix {
				net.FixAround(id)
			}
		}
		if tc.zero {
			join(0, true)
			checkNextHops(t, rng, nodes, "node 0 joined")
		}
		for round := 0; round < 4; round++ {
			// Crashes refresh nobody's tables: fingers and successors go stale.
			for i := 0; i < 1+tc.n/8 && net.Size() > 1; i++ {
				if victim := nodes[rng.Intn(len(nodes))]; victim.Alive() {
					if err := net.CrashNode(victim.id); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkNextHops(t, rng, nodes, "after crashes")
			// One joiner repairs its neighbourhood, one arrives with empty
			// tables and is in nobody else's either.
			join(ID(rng.Uint64()), true)
			join(ID(rng.Uint64()), false)
			checkNextHops(t, rng, nodes, "after joins")
		}
		net.BuildAllTables()
		checkNextHops(t, rng, nodes, "refreshed")
	}
}

// TestRoutingTableIsSortedSet: on an oracle-built ring every node's
// table is succ ∪ fingers, distinct and clockwise from the node, and most
// of its 64 fingers are one id.
func TestRoutingTableIsSortedSet(t *testing.T) {
	_, net, nodes := newTestNet(t, 64, DefaultConfig())
	net.BuildAllTables()
	for _, nd := range nodes {
		checkTable(t, nd, "built")
		if got := len(nd.RoutingTable()); got > len(nd.succ)+16 {
			t.Fatalf("node %#x: %d entries with %d successors on a 64-node ring", nd.id, got, len(nd.succ))
		}
	}
}

// TestNextHopAllocatesNothing: once a table is sorted, a next hop is a
// binary search and a few liveness probes.
func TestNextHopAllocatesNothing(t *testing.T) {
	_, net, nodes := newTestNet(t, 64, DefaultConfig())
	net.BuildAllTables()
	nd, key := nodes[0], ID(0)
	nd.NextHop(key)
	if allocs := testing.AllocsPerRun(100, func() { key += 0x0123456789abcdef; nd.NextHop(key) }); allocs != 0 {
		t.Fatalf("%.0f allocations per NextHop", allocs)
	}
}
