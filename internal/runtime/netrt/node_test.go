package netrt

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"landmarkdht/internal/runtime"
	"landmarkdht/internal/wire"
)

func testData() DataConfig {
	return DataConfig{Metric: "euclid", Seed: 11, Objects: 512, Dim: 3, Landmarks: 4}
}

func testConfig(data DataConfig, join ...string) Config {
	return Config{
		Listen:       "127.0.0.1:0",
		Join:         join,
		Data:         data,
		Deadline:     2 * time.Second,
		GossipPeriod: 100 * time.Millisecond,
	}
}

func startRing(t *testing.T, size int, data DataConfig) []*Node {
	t.Helper()
	nodes := make([]*Node, size)
	first, err := Start(testConfig(data))
	if err != nil {
		t.Fatalf("start first node: %v", err)
	}
	nodes[0] = first
	for i := 1; i < size; i++ {
		n, err := Start(testConfig(data, first.Addr()))
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes[i] = n
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	})
	waitConverged(t, nodes, size)
	return nodes
}

func waitConverged(t *testing.T, nodes []*Node, want int) {
	t.Helper()
	waitFor(t, 15*time.Second, func() bool {
		for _, n := range nodes {
			if n != nil && len(n.snapshot()) < want {
				return false
			}
		}
		return true
	})
}

func sameIDs(a, b []ResultEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Obj != b[i].Obj {
			return false
		}
	}
	return true
}

func subsetIDs(sub, super []ResultEntry) bool {
	have := make(map[int32]bool, len(super))
	for _, e := range super {
		have[e.Obj] = true
	}
	for _, e := range sub {
		if !have[e.Obj] {
			return false
		}
	}
	return true
}

// TestRingExactQueries boots a 4-node localhost ring and checks
// Complete ⇒ exact against brute force, querying every node.
func TestRingExactQueries(t *testing.T) {
	data := testData()
	nodes := startRing(t, 4, data)
	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 12; i++ {
		qobj := ds.RandomQuery(rng)
		r := 0.2 + 0.3*rng.Float64()
		out, err := nodes[i%len(nodes)].Query(qobj, r, 5*time.Second)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !out.Complete {
			t.Fatalf("query %d incomplete on a healthy ring (dropped %d)", i, out.Dropped)
		}
		want, err := ds.BruteForce(qobj, r)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(out.Entries, want) {
			t.Fatalf("query %d: got %d entries, brute force %d", i, len(out.Entries), len(want))
		}
	}
}

// TestRingClientProtocol exercises the TCP client path: handshake,
// info, concurrent queries.
func TestRingClientProtocol(t *testing.T) {
	data := testData()
	nodes := startRing(t, 3, data)
	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(nodes[1].Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Info(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != nodes[1].ID() || len(info.Members) != 3 {
		t.Fatalf("info = %+v", info)
	}
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5; i++ {
				qobj := ds.RandomQuery(rng)
				r := 0.2 + 0.3*rng.Float64()
				out, err := c.Query(qobj, r, 5*time.Second)
				if err != nil {
					errs <- err
					return
				}
				want, err := ds.BruteForce(qobj, r)
				if err != nil {
					errs <- err
					return
				}
				if out.Complete && !sameIDs(out.Entries, want) {
					errs <- errMismatch
					return
				}
			}
			errs <- nil
		}(int64(g) + 1)
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// otherVersionTail stands for whatever another protocol version puts
// behind the handshake prefix: bytes this version's decoders refuse, so a
// side that looked past the prefix would report a malformed frame, not
// the two versions.
var otherVersionTail = []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF}

// TestDialRefusesOtherVersionNode: a node of another version that
// rejects the client names its own, and one that welcomes it anyway
// names it too. Either way Dial fails there and then, with both versions
// in the error — not at the first call, with "connection lost awaiting
// reply" — and without reading past the version.
func TestDialRefusesOtherVersionNode(t *testing.T) {
	for name, tc := range map[string]struct {
		kind    byte
		version uint32
	}{
		"older node welcomes": {kindClientWelcome, protoVersion - 1},
		"older node rejects":  {kindReject, protoVersion - 1},
		"newer node rejects":  {kindReject, protoVersion + 1},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			id, payload, _, err := wire.ReadFrame(conn, nil)
			if err != nil || payload[0] != kindClientHello {
				return
			}
			reply := appendClientWelcome(nil, tc.kind, &clientWelcomeMsg{Version: tc.version, Addr: "x"})
			_ = writePayload(conn, id, append(reply, otherVersionTail...))
			// Hold the connection open: the refusal must be Dial's own.
			_, _, _, _ = wire.ReadFrame(conn, nil)
		}()
		c, err := Dial(ln.Addr().String(), 2*time.Second)
		if err == nil {
			c.Close()
			t.Fatalf("%s: Dial succeeded", name)
		}
		if want := fmt.Sprintf("speaks protocol version %d, this client %d", tc.version, protoVersion); !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: Dial failed with %q, want it to say %q", name, err, want)
		}
	}
}

// logLines returns a Config.Logf that keeps the node's lines, and a wait
// for one containing want.
func logLines(t *testing.T) (logf func(string, ...any), await func(name, want string)) {
	logged := make(chan string, 64)
	logf = func(format string, args ...any) {
		select {
		case logged <- fmt.Sprintf(format, args...):
		default:
		}
	}
	await = func(name, want string) {
		t.Helper()
		for line := ""; !strings.Contains(line, want); {
			select {
			case line = <-logged:
			case <-time.After(2 * time.Second):
				t.Fatalf("%s: no log line saying %q", name, want)
			}
		}
	}
	return logf, await
}

// TestNodeRefusesOtherVersionClient: a client hello of another version,
// whatever follows the version — or too short to name one, which reads
// as version 0 — is answered kindReject carrying the node's version,
// logged with both, and disconnected — before any request frame could be
// misread.
func TestNodeRefusesOtherVersionClient(t *testing.T) {
	cfg := testConfig(testData())
	var awaitLog func(name, want string)
	cfg.Logf, awaitLog = logLines(t)
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for name, version := range map[string]uint32{"older client": protoVersion - 1, "newer client": protoVersion + 1, "versionless client": 0} {
		conn, err := net.DialTimeout("tcp", n.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		hello := append(appendClientWelcome(nil, kindClientHello, &clientWelcomeMsg{Version: version}), otherVersionTail...)
		if version == 0 {
			hello = hello[:3] // the kind byte and half a version
		}
		if err := writePayload(conn, 1, hello); err != nil {
			t.Fatal(err)
		}
		_, payload, _, err := wire.ReadFrame(conn, nil)
		if err != nil {
			t.Fatalf("%s: no reply to the hello: %v", name, err)
		}
		if w, err := decodeClientWelcome(payload[1:]); payload[0] != kindReject || err != nil || w.Version != protoVersion {
			t.Fatalf("%s: answered kind %d with %+v (%v), want a reject naming version %d", name, payload[0], w, err, protoVersion)
		}
		if _, _, _, err := wire.ReadFrame(conn, nil); err == nil {
			t.Fatalf("%s: the session stayed open after the reject", name)
		}
		awaitLog(name, fmt.Sprintf("it speaks protocol version %d, this node %d", version, protoVersion))
	}
}

// TestPeerHandshakeRefusesOtherVersion is the same refusal between
// nodes, in both directions: a hello of another version is answered
// kindReject opening with this node's version and signature and logged
// with both versions; a welcome or a reject of another version fails
// dialHandshake with both in the error. Neither side reads past the
// prefix, and the node's view stays its own.
func TestPeerHandshakeRefusesOtherVersion(t *testing.T) {
	cfg := testConfig(testData())
	var awaitLog func(name, want string)
	cfg.Logf, awaitLog = logLines(t)
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for name, version := range map[string]uint32{"older dialer": protoVersion - 1, "newer dialer": protoVersion + 1} {
		conn, err := net.DialTimeout("tcp", n.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		hello := appendHello(nil, kindHello, &helloMsg{Version: version, Sig: n.sig, Self: memberAt("127.0.0.1:9")})
		if err := writePayload(conn, 1, append(hello, otherVersionTail...)); err != nil {
			t.Fatal(err)
		}
		_, payload, _, err := wire.ReadFrame(conn, nil)
		if err != nil {
			t.Fatalf("%s: no reply to the hello: %v", name, err)
		}
		if w, err := decodeHello(payload[1:]); payload[0] != kindReject || err != nil || w.Version != protoVersion || w.Sig != n.sig {
			t.Fatalf("%s: answered kind %d with %+v (%v), want a reject naming version %d", name, payload[0], w, err, protoVersion)
		}
		awaitLog(name, fmt.Sprintf("it speaks protocol version %d, this node %d", version, protoVersion))
	}
	if got := len(n.snapshot()); got != 1 {
		t.Fatalf("the refused dialers left the node with %d members", got)
	}

	for name, tc := range map[string]struct {
		kind    byte
		version uint32
	}{
		"older listener welcomes": {kindWelcome, protoVersion - 1},
		"newer listener rejects":  {kindReject, protoVersion + 1},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if _, _, _, err := wire.ReadFrame(conn, nil); err != nil {
				return
			}
			reply := appendHello(nil, tc.kind, &helloMsg{Version: tc.version, Sig: n.sig, Self: memberAt(ln.Addr().String())})
			_ = writePayload(conn, 1, append(reply, otherVersionTail...))
			_, _, _, _ = wire.ReadFrame(conn, nil)
		}()
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_, err = dialHandshake(conn, n.Addr(), n.sig, nil)
		if want := fmt.Sprintf("speaks protocol version %d, this node %d", tc.version, protoVersion); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: handshake returned %v, want an error saying %q", name, err, want)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "complete result does not match brute force" }

// TestRingSurvivesKillRestart kills a member (its entries become
// unreachable: queries stay honest), restarts it on the same address,
// and requires post-recovery queries to be Complete and exact again.
func TestRingSurvivesKillRestart(t *testing.T) {
	data := testData()
	nodes := startRing(t, 4, data)
	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))

	victim := nodes[2]
	addr := victim.Addr()
	victim.Close()
	nodes[2] = nil

	// While the member is down, answers must stay honest: complete
	// results exact, incomplete ones a subset.
	for i := 0; i < 3; i++ {
		qobj := ds.RandomQuery(rng)
		r := 0.25 + 0.2*rng.Float64()
		out, err := nodes[0].Query(qobj, r, 5*time.Second)
		if err != nil {
			t.Fatalf("query with dead member: %v", err)
		}
		want, err := ds.BruteForce(qobj, r)
		if err != nil {
			t.Fatal(err)
		}
		if out.Complete {
			if !sameIDs(out.Entries, want) {
				t.Fatalf("complete-but-wrong with dead member: got %d want %d", len(out.Entries), len(want))
			}
		} else if !subsetIDs(out.Entries, want) {
			t.Fatalf("incomplete result is not a subset")
		}
	}

	// Restart on the same address: same node ID, same ownership. The
	// survivors' links redial on demand; gossip restores its view.
	cfg := testConfig(data, nodes[0].Addr())
	cfg.Listen = addr
	restarted, err := Start(cfg)
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	nodes[2] = restarted
	if restarted.ID() != NodeID(addr) {
		t.Fatalf("restarted node changed identity")
	}
	waitConverged(t, nodes, 4)

	// Post-recovery queries must converge back to Complete ∧ exact.
	// Allow a few attempts while links re-establish.
	waitFor(t, 20*time.Second, func() bool {
		qobj := ds.RandomQuery(rng)
		r := 0.25 + 0.2*rng.Float64()
		out, err := nodes[0].Query(qobj, r, 5*time.Second)
		if err != nil {
			return false
		}
		want, err := ds.BruteForce(qobj, r)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Complete {
			return false
		}
		if !sameIDs(out.Entries, want) {
			t.Fatalf("complete-but-wrong after recovery: got %d want %d", len(out.Entries), len(want))
		}
		return true
	})
}

// TestEditMetricRing runs the second metric end to end: exactness is
// metric-independent.
func TestEditMetricRing(t *testing.T) {
	data := DataConfig{Metric: "edit", Seed: 3, Objects: 256, Landmarks: 4}
	nodes := startRing(t, 2, data)
	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5; i++ {
		qobj := ds.RandomQuery(rng)
		r := float64(1 + rng.Intn(3))
		out, err := nodes[i%2].Query(qobj, r, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Complete {
			t.Fatalf("incomplete on a healthy 2-node ring")
		}
		want, err := ds.BruteForce(qobj, r)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(out.Entries, want) {
			t.Fatalf("edit query %d: got %d entries, brute force %d", i, len(out.Entries), len(want))
		}
	}
}

// TestLinkFaultInjection drives the ring through the shared
// runtime.FaultPolicy path (the LinkFaults netrt's links consume):
// frames must actually drop, and every answer must stay honest —
// complete results exact, incomplete ones a subset. A member's drop
// sequence is seeded by its peer's id, which comes from an ephemeral
// port, so the number of frames read before the first drop varies from
// run to run: the test queries until a drop has been counted, and fails
// only if none has been after maxQueries.
func TestLinkFaultInjection(t *testing.T) {
	const minQueries, maxQueries = 10, 200
	data := testData()
	cfg := testConfig(data)
	cfg.Faults = &runtime.FaultPolicy{FrameDrop: 0.25, Seed: 5}
	cfg.Deadline = time.Second
	first, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	cfg2 := testConfig(data, first.Addr())
	cfg2.Faults = cfg.Faults
	cfg2.Deadline = time.Second
	second, err := Start(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	waitConverged(t, []*Node{first, second}, 2)

	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	dropped := func() int64 { return first.Stats().FramesDropped + second.Stats().FramesDropped }
	for i := 0; i < minQueries || dropped() == 0; i++ {
		if i == maxQueries {
			t.Fatalf("FrameDrop 0.25 set but no frame was dropped in %d queries", maxQueries)
		}
		qobj := ds.RandomQuery(rng)
		r := 0.2 + 0.3*rng.Float64()
		out, err := first.Query(qobj, r, 3*time.Second)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want, err := ds.BruteForce(qobj, r)
		if err != nil {
			t.Fatal(err)
		}
		if out.Complete {
			if !sameIDs(out.Entries, want) {
				t.Fatalf("query %d: complete but inexact under frame drops", i)
			}
		} else if !subsetIDs(out.Entries, want) {
			t.Fatalf("query %d: incomplete result is not a subset", i)
		}
	}
}

// TestCorpusSignatureMismatch: nodes built from different seeds must
// refuse to link.
func TestCorpusSignatureMismatch(t *testing.T) {
	a, err := Start(testConfig(testData()))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	other := testData()
	other.Seed = 999
	b, err := Start(testConfig(other, a.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	time.Sleep(500 * time.Millisecond)
	if len(a.snapshot()) != 1 || len(b.snapshot()) != 1 {
		t.Fatalf("mismatched corpora linked anyway: a=%d b=%d members", len(a.snapshot()), len(b.snapshot()))
	}
}

// TestHostileAnnounceCannotRepointAMember: any process that knows the
// corpus parameters passes the handshake. One that then claims, in its
// hello and in an announce, that another member's ring position lives at
// addresses of its choosing changes nothing about that member: the frames
// carry the addresses alone, so the receiver files them under their own
// positions, and every region and mutation routed to the victim still
// goes to the victim.
func TestHostileAnnounceCannotRepointAMember(t *testing.T) {
	nodes := startRing(t, 2, testData())
	n, victim := nodes[0], nodes[1]
	conn, err := net.DialTimeout("tcp", n.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const helloAddr, announceAddr = "127.0.0.1:9", "127.0.0.1:10"
	if _, err := dialHandshake(conn, helloAddr, n.sig, []Member{{ID: victim.id, Addr: helloAddr}}); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	claim := announceMsg{Members: []Member{{ID: victim.id, Addr: announceAddr}}}
	if err := writePayload(conn, 2, appendAnnounce(nil, &claim)); err != nil {
		t.Fatal(err)
	}
	// The announce has been merged once its address shows up, at the
	// position that is its own.
	var at string
	waitFor(t, 5*time.Second, func() bool {
		var merged bool
		execRead(t, n, func() { _, merged = n.members[NodeID(announceAddr)]; at = n.members[victim.id] })
		return merged
	})
	if at != victim.addr {
		t.Fatalf("the victim's position %016x now points at %s, the victim listens at %s", victim.id, at, victim.addr)
	}
}

// TestSplitCredit pins credit conservation.
func TestSplitCredit(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 7, 64} {
		shares := splitCredit(creditTotal, parts)
		if len(shares) != parts {
			t.Fatalf("parts=%d: %d shares", parts, len(shares))
		}
		var sum uint64
		for _, s := range shares {
			if s == 0 {
				t.Fatalf("parts=%d: zero share", parts)
			}
			sum += s
		}
		if sum != creditTotal {
			t.Fatalf("parts=%d: shares sum %d, want %d", parts, sum, creditTotal)
		}
	}
	if splitCredit(3, 5) != nil {
		t.Fatal("underfunded split must return nil")
	}
	if splitCredit(10, 0) != nil {
		t.Fatal("zero parts must return nil")
	}
}
