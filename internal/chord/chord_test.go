package chord

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"landmarkdht/internal/netmodel"
	"landmarkdht/internal/runtime/simrt"
	"landmarkdht/internal/sim"
)

func newTestNet(t *testing.T, n int, cfg Config) (*sim.Engine, *Network, []*Node) {
	t.Helper()
	eng := sim.NewEngine(1)
	model, err := netmodel.NewSyntheticKing(netmodel.KingConfig{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(simrt.New(eng), model, cfg)
	rng := rand.New(rand.NewSource(2))
	nodes := make([]*Node, 0, n)
	used := map[ID]bool{}
	for i := 0; i < n; i++ {
		id := ID(rng.Uint64())
		for used[id] {
			id = ID(rng.Uint64())
		}
		used[id] = true
		nd, err := net.AddNode(id, i)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	return eng, net, nodes
}

// testMsg is a test message: what its delivery and its loss run (nil:
// nothing).
type testMsg struct {
	recv func(dst *Node)
	lost func()
}

var testHandlers = Handlers{
	Recv: func(dst *Node, arg any) {
		if m := arg.(*testMsg); m.recv != nil {
			m.recv(dst)
		}
	},
	Lost: func(arg any) {
		if m := arg.(*testMsg); m.lost != nil {
			m.lost()
		}
	},
}

// testSend sends one message through SendRecord.
func testSend(net *Network, from *Node, to ID, kind MsgKind, bytes int, recv func(dst *Node), lost func()) {
	net.SendRecord(from, to, kind, bytes, &testHandlers, &testMsg{recv: recv, lost: lost})
}

// lookupEnd is how a test lookup ended, and when.
type lookupEnd struct {
	net         *Network
	owner       ID
	hops        int
	found, lost bool
	at          time.Duration
}

var testLookup = Lookup{
	Found: func(owner ID, hops int, arg any) {
		e := arg.(*lookupEnd)
		e.owner, e.hops, e.found, e.at = owner, hops, true, e.net.rt.Now()
	},
	Lost: func(arg any) { arg.(*lookupEnd).lost = true },
}

// runLookup runs one FindSuccessor from src to its end.
func runLookup(eng *sim.Engine, src *Node, key ID, bytes int) lookupEnd {
	e := lookupEnd{net: src.net}
	src.FindSuccessor(key, bytes, &testLookup, &e)
	eng.Run()
	return e
}

func TestIntervalHelpers(t *testing.T) {
	if !InOpenClosed(10, 30, 30) || InOpenClosed(10, 10, 30) {
		t.Fatal("InOpenClosed basic")
	}
	// Degenerate a == b: whole ring.
	if !InOpenClosed(7, 3, 7) || !InOpenClosed(7, 7, 7) {
		t.Fatal("InOpenClosed degenerate")
	}
	if Dist(10, 3) != ^ID(0)-6 {
		t.Fatal("Dist wrap")
	}
}

func TestAddRemoveNode(t *testing.T) {
	_, net, nodes := newTestNet(t, 10, DefaultConfig())
	if net.Size() != 10 {
		t.Fatalf("size = %d", net.Size())
	}
	if _, err := net.AddNode(nodes[0].ID(), 0); err == nil {
		t.Fatal("expected duplicate-id error")
	}
	if _, err := net.AddNode(12345, 99999); err == nil {
		t.Fatal("expected host-range error")
	}
	if err := net.RemoveNode(nodes[3].ID()); err != nil {
		t.Fatal(err)
	}
	if net.Size() != 9 {
		t.Fatalf("size after remove = %d", net.Size())
	}
	if err := net.RemoveNode(nodes[3].ID()); err == nil {
		t.Fatal("expected error removing twice")
	}
	if nodes[3].Alive() {
		t.Fatal("removed node still alive")
	}
}

func TestOracleSuccessor(t *testing.T) {
	_, net, _ := newTestNet(t, 50, DefaultConfig())
	ids := append([]ID(nil), net.ring...)
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Fatal("ring not sorted")
	}
	// Exact hit.
	got, err := net.SuccessorID(ids[7])
	if err != nil || got != ids[7] {
		t.Fatalf("successor(exact) = %#x, err=%v", got, err)
	}
	// Between two ids.
	if ids[8]-ids[7] > 1 {
		got, _ = net.SuccessorID(ids[7] + 1)
		if got != ids[8] {
			t.Fatalf("successor(mid) = %#x, want %#x", got, ids[8])
		}
	}
	// Wraparound past the largest id.
	got, _ = net.SuccessorID(ids[len(ids)-1] + 1)
	if got != ids[0] {
		t.Fatalf("successor(wrap) = %#x, want %#x", got, ids[0])
	}
}

func TestBuildTablesInvariants(t *testing.T) {
	_, net, nodes := newTestNet(t, 64, DefaultConfig())
	net.BuildAllTables()
	ids := append([]ID(nil), net.ring...)
	for _, nd := range nodes {
		self := sort.Search(len(ids), func(i int) bool { return ids[i] >= nd.ID() })
		wantSucc := ids[(self+1)%len(ids)]
		if nd.Successor() != wantSucc {
			t.Fatalf("node %#x successor = %#x, want %#x", nd.ID(), nd.Successor(), wantSucc)
		}
		pred, ok := nd.Predecessor()
		if !ok || pred != ids[(self-1+len(ids))%len(ids)] {
			t.Fatalf("node %#x predecessor wrong", nd.ID())
		}
		if got := len(nd.SuccessorList()); got != 16 {
			t.Fatalf("successor list len = %d", got)
		}
		// Fingers must lie in (or be the successor of) their interval.
		for i := 0; i < 64; i++ {
			start := nd.ID() + 1<<uint(i)
			f := nd.fingers[i]
			oracle, _ := net.SuccessorID(start)
			if !net.cfg.PNS {
				if f != oracle {
					t.Fatalf("finger %d = %#x, want %#x", i, f, oracle)
				}
				continue
			}
			// With PNS the finger must still be a live node at-or-after
			// start but before start+2^i... it can also be the plain
			// successor when the interval is empty.
			if f != oracle && !InOpenClosed(start-1, f, start+1<<uint(i)-1) {
				t.Fatalf("PNS finger %d = %#x outside interval (oracle %#x)", i, f, oracle)
			}
		}
	}
}

func TestOwnsKey(t *testing.T) {
	_, net, _ := newTestNet(t, 16, DefaultConfig())
	net.BuildAllTables()
	// Every key must be owned by exactly its oracle successor.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		key := ID(rng.Uint64())
		owner, _ := net.SuccessorNode(key)
		count := 0
		for _, nd := range net.Nodes() {
			if nd.OwnsKey(key) {
				count++
				if nd.ID() != owner.ID() {
					t.Fatalf("key %#x claimed by %#x, oracle owner %#x", key, nd.ID(), owner.ID())
				}
			}
		}
		if count != 1 {
			t.Fatalf("key %#x owned by %d nodes", key, count)
		}
	}
}

func TestNextHopMakesProgress(t *testing.T) {
	_, net, nodes := newTestNet(t, 64, DefaultConfig())
	net.BuildAllTables()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		key := ID(rng.Uint64())
		nd := nodes[rng.Intn(len(nodes))]
		hop := nd.NextHop(key)
		if hop == nd.ID() {
			// Terminal: successor must own the key.
			succ := net.Node(nd.Successor())
			if !succ.OwnsKey(key) && !nd.OwnsKey(key) {
				t.Fatalf("NextHop=self but successor %#x does not own key %#x", succ.ID(), key)
			}
			continue
		}
		// Progress: hop must be strictly closer (preceding) to key.
		if Dist(hop, key) >= Dist(nd.ID(), key) {
			t.Fatalf("no progress: me=%#x hop=%#x key=%#x", nd.ID(), hop, key)
		}
		if hop == key {
			t.Fatal("NextHop returned the key's own node (successor, not predecessor)")
		}
	}
}

func TestFindSuccessorMatchesOracle(t *testing.T) {
	eng, net, nodes := newTestNet(t, 64, DefaultConfig())
	net.BuildAllTables()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		key := ID(rng.Uint64())
		src := nodes[rng.Intn(len(nodes))]
		want, _ := net.SuccessorID(key)
		e := runLookup(eng, src, key, 40)
		got, hops := e.owner, e.hops
		if !e.found {
			t.Fatal("lookup did not complete")
		}
		if got != want {
			t.Fatalf("lookup(%#x) = %#x, want %#x", key, got, want)
		}
		if hops > 20 {
			t.Fatalf("lookup took %d hops in a 64-node network", hops)
		}
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	eng, net, nodes := newTestNet(t, 256, DefaultConfig())
	net.BuildAllTables()
	rng := rand.New(rand.NewSource(6))
	var total int
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		key := ID(rng.Uint64())
		src := nodes[rng.Intn(len(nodes))]
		total += runLookup(eng, src, key, 40).hops
	}
	avg := float64(total) / trials
	// log2(256) = 8; with fingers + 16 successors expect ~4-5.
	if avg > 8 {
		t.Fatalf("average hops = %.2f, want <= 8", avg)
	}
	if avg < 0.5 {
		t.Fatalf("average hops = %.2f suspiciously low", avg)
	}
}

func TestPNSReducesLatency(t *testing.T) {
	run := func(pns bool) time.Duration {
		cfg := DefaultConfig()
		cfg.PNS = pns
		eng, net, nodes := newTestNet(t, 128, cfg)
		net.BuildAllTables()
		rng := rand.New(rand.NewSource(7))
		var total time.Duration
		const trials = 200
		for trial := 0; trial < trials; trial++ {
			key := ID(rng.Uint64())
			src := nodes[rng.Intn(len(nodes))]
			start := eng.Now()
			total += runLookup(eng, src, key, 40).at - start
		}
		return total / trials
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("PNS did not reduce mean lookup latency: with=%v without=%v", with, without)
	}
}

func TestTrafficAccounting(t *testing.T) {
	eng, net, nodes := newTestNet(t, 16, DefaultConfig())
	net.BuildAllTables()
	runLookup(eng, nodes[0], nodes[8].ID()+1, 100)
	tr := net.Traffic()
	msgs, bytes := tr.Total()
	if msgs == 0 && nodes[0].NextHop(nodes[8].ID()+1) != nodes[0].ID() {
		t.Fatal("no traffic recorded for multi-hop lookup")
	}
	if bytes != msgs*100 {
		t.Fatalf("bytes = %d, msgs = %d (want 100 bytes each)", bytes, msgs)
	}
}

func TestSendToDeadNodeDropped(t *testing.T) {
	eng, net, nodes := newTestNet(t, 8, DefaultConfig())
	net.BuildAllTables()
	delivered := false
	target := nodes[5].ID()
	testSend(net, nodes[0], target, KindQuery, 10, func(*Node) { delivered = true }, nil)
	// Kill the target while the message is in flight.
	if err := net.RemoveNode(target); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if delivered {
		t.Fatal("message delivered to dead node")
	}
}

func TestMsgKindString(t *testing.T) {
	kinds := []MsgKind{KindMaintenance, KindLookup, KindQuery, KindResult, KindTransfer, MsgKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
}

func TestNodesInRingOrder(t *testing.T) {
	_, net, _ := newTestNet(t, 20, DefaultConfig())
	prev := ID(0)
	for i, nd := range net.Nodes() {
		if i > 0 && nd.ID() <= prev {
			t.Fatal("Nodes() not in ring order")
		}
		prev = nd.ID()
	}
}

func BenchmarkLookup1024(b *testing.B) {
	eng := sim.NewEngine(1)
	model, _ := netmodel.NewSyntheticKing(netmodel.KingConfig{N: 1024, Seed: 1})
	net := NewNetwork(simrt.New(eng), model, DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1024; i++ {
		if _, err := net.AddNode(ID(rng.Uint64()), i); err != nil {
			b.Fatal(err)
		}
	}
	net.BuildAllTables()
	nodes := net.Nodes()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runLookup(eng, nodes[i%1024], ID(rng.Uint64()), 40)
	}
}
