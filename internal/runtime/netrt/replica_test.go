package netrt

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sort"
	"testing"
	"time"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
	"landmarkdht/internal/wire"
)

// replicatedConfig is testConfig tuned for fast failure detection and
// anti-entropy, with replication on. SuspectAfter stays generous
// relative to the period: a loaded test machine can delay a pong past
// one 100ms round easily, and a spuriously-down target pauses its
// repair streams — exactly the starvation this config must avoid.
func replicatedConfig(data DataConfig, replicas int, join ...string) Config {
	cfg := testConfig(data, join...)
	cfg.Replicas = replicas
	cfg.HeartbeatPeriod = 100 * time.Millisecond
	cfg.SuspectAfter = 6
	cfg.AntiEntropyPeriod = 150 * time.Millisecond
	return cfg
}

func startReplicatedRing(t *testing.T, size, replicas int, data DataConfig) []*Node {
	t.Helper()
	nodes := make([]*Node, size)
	first, err := Start(replicatedConfig(data, replicas))
	if err != nil {
		t.Fatalf("start first node: %v", err)
	}
	nodes[0] = first
	for i := 1; i < size; i++ {
		n, err := Start(replicatedConfig(data, replicas, first.Addr()))
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

// execRead runs fn on the node's executor and waits for it — the test's
// window into executor-owned state.
func execRead(t *testing.T, n *Node, fn func()) {
	t.Helper()
	if err := n.rt.Do(fn); err != nil {
		t.Fatal(err)
	}
}

// waitSynced waits until every node holds a synced copy of each of the
// owners it replicates for.
func waitSynced(t *testing.T, nodes []*Node, wantOwners int) {
	t.Helper()
	waitFor(t, 20*time.Second, func() bool {
		for _, n := range nodes {
			if n == nil {
				continue
			}
			synced := 0
			execRead(t, n, func() { synced = n.syncedOwners() })
			if synced < wantOwners {
				return false
			}
		}
		return true
	})
}

// waitCaughtUp waits until holder's copy of owner's delta is synced at
// owner's current digest and size: every mutation owner has applied is
// in it.
func waitCaughtUp(t *testing.T, owner, holder *Node) {
	t.Helper()
	waitFor(t, 20*time.Second, func() bool {
		var dig uint64
		var size int
		execRead(t, owner, func() { dig, size = owner.mine.digest, owner.mine.size() })
		caughtUp := false
		execRead(t, holder, func() {
			c := holder.copies[owner.id]
			caughtUp = c != nil && c.synced && c.digest == dig && c.size() == size
		})
		return caughtUp
	})
}

// objectOwnedBy draws random objects until one keys into owner's arc.
func objectOwnedBy(t *testing.T, ds *Dataset, rng *rand.Rand, owner *Node) []byte {
	t.Helper()
	for {
		obj := ds.RandomQuery(rng)
		key, _, _, err := ds.c.MapObj(obj)
		if err != nil {
			t.Fatal(err)
		}
		owned := false
		execRead(t, owner, func() { owned = owner.successor(uint64(key)) == owner.id })
		if owned {
			return obj
		}
	}
}

// ownedIDs returns the ids of the boot entries n owns, in key order.
func ownedIDs(t *testing.T, n *Node) []int32 {
	t.Helper()
	var ids []int32
	execRead(t, n, func() {
		for _, r := range n.runs {
			ids = append(ids, n.data.Cols().ids[r.a:r.b]...)
		}
	})
	return ids
}

// largest returns the member owning the most boot entries, so that its
// arc has some to delete, with its successor on the ring — its replica
// at Replicas = 1.
func largest(t *testing.T, nodes []*Node) (owner, successor *Node) {
	t.Helper()
	ring := slices.Clone(nodes)
	sort.Slice(ring, func(i, j int) bool { return ring[i].id < ring[j].id })
	best := 0
	for i := range ring {
		if len(ownedIDs(t, ring[i])) > len(ownedIDs(t, ring[best])) {
			best = i
		}
	}
	return ring[best], ring[(best+1)%len(ring)]
}

// startWhere starts a node on the first free loopback port whose NodeID
// satisfies ok. Where a member sits on the ring decides what it owns and
// whom it replicates, so a test about one ring shape picks positions;
// the ports tried are below the range the kernel hands out to everybody
// else, and one that is taken all the same is skipped.
func startWhere(t *testing.T, cfg Config, ok func(id uint64) bool) *Node {
	t.Helper()
	for port := 20000; port < 32768; port++ {
		cfg.Listen = fmt.Sprintf("127.0.0.1:%d", port)
		if !ok(NodeID(cfg.Listen)) {
			continue
		}
		if n, err := Start(cfg); err == nil {
			return n
		}
	}
	t.Fatal("no free port gives a node id where the test wants one")
	return nil
}

// TestFormerReplicaDoesNotServeStaleCopy: a ring that grows moves
// replica sets. Two members replicate each other; a third joins behind
// the second, which from then on streams, adverts and fans out to the
// newcomer — the first member's copy of it is never touched again and
// goes on saying synced. After a publish into and a delete from the
// second member's region it dies, and the first member is asked: the
// answer must come from the newcomer's copy, which has both mutations,
// not from the one left behind here, which has neither.
func TestFormerReplicaDoesNotServeStaleCopy(t *testing.T) {
	data := testData()
	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	// below is the share of the corpus at or under a ring position.
	below := func(id uint64) float64 {
		return float64(ds.c.Cols().above(ds.c.Part().Unring(lph.Key(id)))) / float64(ds.N())
	}
	var nodes []*Node
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	start := func(ok func(id uint64) bool) *Node {
		var join []string
		if len(nodes) > 0 {
			join = []string{nodes[0].Addr()}
		}
		n := startWhere(t, replicatedConfig(data, 1, join...), ok)
		nodes = append(nodes, n)
		waitConverged(t, nodes, len(nodes))
		return n
	}
	// former < victim < newcomer on the ring, and victim owns the tenth
	// of the corpus between the two bands at least.
	former := start(func(id uint64) bool { return below(id) > 0.2 && below(id) < 0.45 })
	victim := start(func(id uint64) bool { return below(id) > 0.55 && below(id) < 0.8 })
	waitCaughtUp(t, victim, former)
	newcomer := start(func(id uint64) bool { return id > victim.id })
	waitCaughtUp(t, victim, newcomer)

	or := &oracle{ds: ds, deleted: map[int32]bool{}, published: map[int32][]byte{}}
	rng := rand.New(rand.NewSource(1))
	pubID, obj := int32(ds.N()), objectOwnedBy(t, ds, rng, victim)
	if err := former.Publish(pubID, obj, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	or.published[pubID] = obj
	delID := ownedIDs(t, victim)[0]
	if err := former.Delete(delID, nil, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	or.deleted[delID] = true
	waitCaughtUp(t, victim, newcomer)
	waitCaughtUp(t, newcomer, former)

	victim.Close()
	markDown(t, former, victim.id)
	markDown(t, newcomer, victim.id)
	// Radius 2 is everything in the unit cube: the publish must be in
	// the answer and the delete must not, whatever the query.
	for _, r := range []float64{2, 0.4} {
		qobj := ds.RandomQuery(rng)
		out, err := former.Query(qobj, r, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Complete {
			t.Fatalf("radius %v: incomplete (dropped %d)", r, out.Dropped)
		}
		if want := or.answer(t, qobj, r); !slices.Equal(out.Entries, want) {
			t.Fatalf("radius %v: complete but wrong: %d entries (published id present: %v, deleted id present: %v), the oracle has %d",
				r, len(out.Entries), hasID(out.Entries, pubID), hasID(out.Entries, delID), len(want))
		}
	}
	var synced int
	execRead(t, former, func() { synced = former.syncedOwners() })
	if synced != 1 {
		t.Fatalf("the former holder counts %d synced owners, it replicates one", synced)
	}
}

// TestReplicaFailoverExactQueries is the tentpole contract: with
// Replicas=1, a member dying permanently must not cost completeness or
// exactness. Publishes into and deletes from its arc reach its replica
// as its delta; once the survivors' detectors mark it down, every query
// is Complete and equal to the oracle — the corpus less the deletes plus
// the publishes, ids and distances — answered from the columns every
// member holds, filtered by that copy.
func TestReplicaFailoverExactQueries(t *testing.T) {
	data := testData()
	nodes := startReplicatedRing(t, 3, 1, data)
	waitSynced(t, nodes, 1)
	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	victim, holder := largest(t, nodes)
	survivors := slices.DeleteFunc(slices.Clone(nodes), func(n *Node) bool { return n == victim })

	or := &oracle{ds: ds, deleted: map[int32]bool{}, published: map[int32][]byte{}}
	rng := rand.New(rand.NewSource(23))
	owned := ownedIDs(t, victim)
	for i := 0; i < 4; i++ {
		id, obj := int32(ds.N()+i), objectOwnedBy(t, ds, rng, victim)
		if err := survivors[i%2].Publish(id, obj, 5*time.Second); err != nil {
			t.Fatalf("publish %d: %v", id, err)
		}
		or.published[id] = obj
		del := owned[i*len(owned)/4]
		if err := survivors[i%2].Delete(del, nil, 5*time.Second); err != nil {
			t.Fatalf("delete %d: %v", del, err)
		}
		or.deleted[del] = true
	}
	waitCaughtUp(t, victim, holder)

	victimID := victim.ID()
	victim.Close()
	// Wait for every survivor's detector to mark the victim down —
	// rerouting needs the verdict at whichever node holds the shard.
	waitFor(t, 15*time.Second, func() bool {
		for _, n := range survivors {
			down := false
			execRead(t, n, func() { down = n.isDown(victimID) })
			if !down {
				return false
			}
		}
		return true
	})

	// Radius 2 covers the unit cube: every mutation is in that answer.
	for i := 0; i < 12; i++ {
		qobj, r := ds.RandomQuery(rng), 0.2+0.3*rng.Float64()
		if i == 0 {
			r = 2
		}
		out, err := survivors[i%2].Query(qobj, r, 5*time.Second)
		if err != nil {
			t.Fatalf("query %d with dead member: %v", i, err)
		}
		if !out.Complete {
			t.Fatalf("query %d incomplete with a dead member despite replicas (dropped %d)", i, out.Dropped)
		}
		if want := or.answer(t, qobj, r); !slices.Equal(out.Entries, want) {
			t.Fatalf("query %d: failover answer has %d entries, the oracle %d", i, len(out.Entries), len(want))
		}
	}
}

// TestAntiEntropyRepairsDivergence tampers with a synced replica copy
// after a mutation and requires the digest exchange to notice and
// re-stream the owner's delta.
func TestAntiEntropyRepairsDivergence(t *testing.T) {
	data := testData()
	nodes := startReplicatedRing(t, 2, 1, data)
	waitSynced(t, nodes, 1)
	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	a, b := largest(t, nodes)
	const pubID = int32(10_000)
	if err := b.Publish(pubID, objectOwnedBy(t, ds, rand.New(rand.NewSource(4)), a), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(ownedIDs(t, a)[0], nil, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, a, b)
	before := b.Stats().Repairs

	// Drop the publish from b's copy of a, keeping the copy's digest
	// self-consistent — only the owner's advert can expose the loss.
	execRead(t, b, func() {
		c := b.copies[a.id]
		if c == nil {
			t.Error("no copy of the owner on the replica")
			return
		}
		c.forget(pubID)
	})
	waitCaughtUp(t, a, b)
	if b.Stats().Repairs <= before {
		t.Fatal("the copy caught up again without a repair stream")
	}
}

// TestMutationFreeRingSyncsWithoutStream: a replica copy is its owner's
// delta, so on a ring nobody has mutated every copy is empty and syncs by
// the (0, 0) advert alone. ring-write-mix's shape — four members, 8192
// objects of dimension 8, one replica each — reaches one synced owner per
// member without a chunk on the wire; while a copy was the owner's whole
// arc, the same ring took 131–248 chunks to sync.
func TestMutationFreeRingSyncsWithoutStream(t *testing.T) {
	nodes := startReplicatedRing(t, 4, 1, DataConfig{Metric: "euclid", Seed: 1, Objects: 8192, Dim: 8, Landmarks: 6})
	waitSynced(t, nodes, 1)
	for _, n := range nodes {
		if s := n.Stats(); s.Repairs != 0 || s.RepairChunks != 0 {
			t.Fatalf("node %016x installed %d streams of %d chunks", n.id, s.Repairs, s.RepairChunks)
		}
	}
}

// TestRestartedReplicaInstallsOneStream: while it runs, a replica is kept
// current by fan-out and receives no stream; restarted, it has lost its
// copy, and the owner's next advert brings back what it cannot re-derive
// — the owner's publishes — as one stream of exactly that many items.
func TestRestartedReplicaInstallsOneStream(t *testing.T) {
	data := testData()
	nodes := startReplicatedRing(t, 2, 1, data)
	waitSynced(t, nodes, 1)
	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	owner, replica := largest(t, nodes)
	rng := rand.New(rand.NewSource(6))
	const published = 5
	for i := 0; i < published; i++ {
		if err := replica.Publish(int32(ds.N()+i), objectOwnedBy(t, ds, rng, owner), 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, owner, replica)
	if s := replica.Stats(); s.Repairs != 0 {
		t.Fatalf("fan-out should have kept the copy current; %d streams were installed", s.Repairs)
	}

	addr := replica.Addr()
	replica.Close()
	cfg := replicatedConfig(data, 1, owner.Addr())
	cfg.Listen = addr
	restarted, err := Start(cfg)
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	nodes[slices.Index(nodes, replica)] = restarted
	waitCaughtUp(t, owner, restarted)
	var items int
	execRead(t, restarted, func() { items = restarted.copies[owner.id].size() })
	if s := restarted.Stats(); s.Repairs != 1 || items != published {
		t.Fatalf("the restarted replica installed %d streams and holds %d items, want one stream of %d", s.Repairs, items, published)
	}
}

// TestMutationsFollowTheirKeyOnJoin: what a member applied as owner
// follows its key when the ring grows. A one-member ring publishes a
// fresh object and deletes a boot entry, both keyed just after it; a
// second member then starts at a position that takes both keys. Every
// query, at either member, must soon come back Complete, with the
// publish and without the delete: the newcomer answers for those keys
// now, and it has to have been told. (Before the hand-off, every such
// query came back Complete with the deleted id present, and a query
// around the publish without it.)
func TestMutationsFollowTheirKeyOnJoin(t *testing.T) {
	data := testData()
	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	first := startWhere(t, testConfig(data), func(uint64) bool { return true })
	t.Cleanup(first.Close)
	// past is how far round the ring a position lies after first's.
	past := func(key uint64) uint64 { return key - first.ID() }
	nearest := func(key uint64, best *uint64) bool {
		if d := past(key); d != 0 && d < *best {
			*best = d
			return true
		}
		return false
	}
	delID, delPast := int32(-1), ^uint64(0)
	for i := 0; i < ds.N(); i++ {
		if nearest(uint64(ds.c.Key(i)), &delPast) {
			delID = int32(i)
		}
	}
	rng := rand.New(rand.NewSource(3))
	var obj []byte
	pubPast := ^uint64(0)
	for i := 0; i < 4000; i++ {
		o := ds.RandomQuery(rng)
		key, _, _, err := ds.c.MapObj(o)
		if err != nil {
			t.Fatal(err)
		}
		if nearest(uint64(key), &pubPast) {
			obj = o
		}
	}
	pubID := int32(ds.N())
	if err := first.Publish(pubID, obj, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := first.Delete(delID, nil, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// The second member sits past both keys, within a 256th of the ring.
	farthest := max(delPast, pubPast)
	second := startWhere(t, testConfig(data, first.Addr()), func(id uint64) bool {
		return past(id) > farthest && past(id)-farthest < 1<<56
	})
	t.Cleanup(second.Close)
	waitConverged(t, []*Node{first, second}, 2)

	or := &oracle{ds: ds, deleted: map[int32]bool{delID: true}, published: map[int32][]byte{pubID: obj}}
	// Radius 2 covers the unit cube; 1e-9 around the publish reaches only
	// the owner of its key.
	queries := []struct {
		obj []byte
		r   float64
	}{{obj, 1e-9}, {objAt(ds.c, int(ds.c.Cols().pos[delID])), 2}}
	waitFor(t, 10*time.Second, func() bool {
		for _, n := range []*Node{first, second} {
			for _, q := range queries {
				out, err := n.Query(q.obj, q.r, 5*time.Second)
				if err != nil || !out.Complete || !slices.Equal(out.Entries, or.answer(t, q.obj, q.r)) {
					return false
				}
			}
		}
		return true
	})
}

// TestFailureDetectorRecovery pins the decay contract: a down verdict
// reverses once the member answers probes again — never a permanent
// blacklist.
func TestFailureDetectorRecovery(t *testing.T) {
	data := testData()
	cfg := replicatedConfig(data, 0)
	a, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Start(replicatedConfig(data, 0, a.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	waitConverged(t, []*Node{a, b}, 2)

	bID, bAddr := b.ID(), b.Addr()
	b.Close()
	waitFor(t, 15*time.Second, func() bool {
		down := false
		execRead(t, a, func() { down = a.isDown(bID) })
		return down
	})

	// Restart on the same address: same identity, answered probes must
	// clear the verdict.
	cfg2 := replicatedConfig(data, 0, a.Addr())
	cfg2.Listen = bAddr
	b2, err := Start(cfg2)
	if err != nil {
		t.Fatalf("restart on %s: %v", bAddr, err)
	}
	defer b2.Close()
	waitFor(t, 20*time.Second, func() bool {
		down := true
		execRead(t, a, func() { down = a.isDown(bID) })
		return !down
	})
}

// TestHostileRepFrameDropsLink feeds a handshaked peer connection a
// truncated replication or membership frame: the node must drop the
// link (typed wire.FrameError surfaced by the synchronous decode) —
// never panic, never keep reading the poisoned stream — and nothing of
// the frame reaches the executor.
func TestHostileRepFrameDropsLink(t *testing.T) {
	n, err := Start(testConfig(testData()))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	const peerAddr, namedAddr = "127.0.0.1:9", "127.0.0.1:10"
	announce := appendAnnounce(nil, &announceMsg{Members: []Member{memberAt(namedAddr)}})
	begin := appendRepBegin(nil, &repBeginMsg{Owner: NodeID(peerAddr), Transfer: 1, Chunks: 1, Entries: 1})
	for name, payload := range map[string][]byte{
		"chunk":    {kindRepChunk, 0xDE, 0xAD, 0xBE},
		"announce": announce[:len(announce)-1],
		"repBegin": begin[:len(begin)-1],
	} {
		conn, err := net.DialTimeout("tcp", n.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := dialHandshake(conn, peerAddr, n.sig, nil); err != nil {
			t.Fatalf("%s: handshake: %v", name, err)
		}
		if err := writePayload(conn, 2, payload); err != nil {
			t.Fatal(err)
		}
		// The node closes the connection; anything it sent beforehand
		// (heartbeats) may still be buffered, so read until the drop.
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for {
			_, _, next, err := wire.ReadFrame(conn, buf)
			if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
				t.Fatalf("%s: link survived a truncated frame", name)
			}
			if err != nil {
				break // dropped, as required
			}
			buf = next
		}
	}
	execRead(t, n, func() {
		if _, merged := n.members[NodeID(namedAddr)]; merged || len(n.staging) != 0 {
			t.Errorf("a truncated frame was acted on: named member merged %v, %d streams staged", merged, len(n.staging))
		}
	})
}

// TestHostileQueryFrameDropsLink: the frames of a query are decoded on
// the link's reader, as the replication frames are. A handshaken peer
// sends a whole kindQuery — the node answers it, so the path is live —
// and then one cut five bytes short: the node drops the link, and
// nothing of the second query reached the executor, which would have
// answered it or returned its credit.
func TestHostileQueryFrameDropsLink(t *testing.T) {
	cfg := testConfig(testData())
	cfg.GossipPeriod, cfg.HeartbeatPeriod, cfg.AntiEntropyPeriod = silent, silent, silent
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	conn, err := net.DialTimeout("tcp", n.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const peerAddr = "127.0.0.1:9"
	peer := NodeID(peerAddr)
	if _, err := dialHandshake(conn, peerAddr, n.sig, nil); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	ds, err := BuildDataset(testData())
	if err != nil {
		t.Fatal(err)
	}
	q := queryMsg{Origin: peer, OriginAddr: peerAddr, Epoch: 1, QID: 1, Credit: creditTotal,
		Regions: []query.Region{{Cube: n.data.Part().AllBounds()}},
		QObj:    ds.RandomQuery(rand.New(rand.NewSource(2))), R: 0.5, TTL: 4}
	send := func(id uint64, payload []byte) {
		t.Helper()
		frame, err := wire.AppendFrame(nil, id, payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	// Everything the node sends this peer comes down the same connection.
	// next reads one frame and says which query it belongs to and the
	// credit it carries.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	next := func() (qid, credit uint64, err error) {
		_, payload, nb, err := wire.ReadFrame(conn, buf)
		if err != nil {
			return 0, 0, err
		}
		buf = nb
		switch payload[0] {
		case kindQuery:
			fq, err := decodeQuery(payload[1:])
			return fq.QID, fq.Credit, err
		case kindResult:
			res, err := decodeResult(payload[1:])
			return res.QID, res.Credit, err
		case kindDrop:
			d, err := decodeDrop(payload[1:])
			return d.QID, d.Credit, err
		}
		return 0, 0, nil
	}
	// The node answers the whole query in several frames down this one
	// link: the forward of the sub-cuboids the peer owns and its own
	// results. Read them all — their credits add up to the query's — so
	// that none is still queued when the truncated frame drops the link,
	// to wait there while the link redials an address nobody serves.
	send(2, appendQuery(nil, &q))
	for got := uint64(0); got < creditTotal; {
		qid, credit, err := next()
		if err != nil {
			t.Fatalf("awaiting the answer to the whole query (credit %d of %d): %v", got, creditTotal, err)
		}
		if qid == q.QID {
			got += credit
		}
	}
	q.QID = 2
	cut := appendQuery(nil, &q)
	send(3, cut[:len(cut)-5])
	for {
		qid, _, err := next()
		if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
			t.Fatal("link survived a truncated query frame")
		}
		if err != nil {
			break // dropped, as required
		}
		if qid == q.QID {
			t.Fatal("the truncated query was answered")
		}
	}
	var running int
	execRead(t, n, func() { running = len(n.queries) })
	if s := n.Stats(); running != 0 || s.Queued != 0 {
		t.Fatalf("after the drop: %d queries running, %d frames queued", running, s.Queued)
	}
}

// TestHostileRepBeginRefused sends a stream header claiming more items
// than maxRepBytes could carry — a tombstone, the smallest, is its
// 4-byte id — then an honest header for the same transfer. The first
// must be refused, so the second is the one staged; were the first
// accepted, the second would be taken for its retry and ignored.
func TestHostileRepBeginRefused(t *testing.T) {
	n, err := Start(testConfig(testData()))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	conn, err := net.DialTimeout("tcp", n.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const peerAddr = "127.0.0.1:9"
	if _, err := dialHandshake(conn, peerAddr, n.sig, nil); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	for i, entries := range []int{maxRepBytes/minRepEntry + 1, 1} {
		err := writePayload(conn, uint64(2+i), appendRepBegin(nil,
			&repBeginMsg{Owner: NodeID(peerAddr), Transfer: 1, Chunks: 1, Entries: entries}))
		if err != nil {
			t.Fatal(err)
		}
	}
	staged := -1
	waitFor(t, 5*time.Second, func() bool {
		execRead(t, n, func() {
			if st := n.staging[NodeID(peerAddr)]; st != nil {
				staged = st.entries
			}
		})
		return staged >= 0
	})
	if staged != 1 {
		t.Fatalf("staged a stream of %d entries: the oversized header was accepted", staged)
	}
}

// TestStagesOfTwoOwnersWithOneTransferID plays two owners that each
// open their transfer 1 at the same replica — every node numbers its
// own pushes from 1. Both streams must be staged side by side, and each
// owner's chunk of an empty delta must come back acked to it.
func TestStagesOfTwoOwnersWithOneTransferID(t *testing.T) {
	cfg := testConfig(testData())
	cfg.Replicas = 2
	// No probes or adverts of the node's own: nothing but the two
	// streams may touch its view or its staging.
	cfg.HeartbeatPeriod, cfg.AntiEntropyPeriod = time.Hour, time.Hour
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	empty := newDelta()
	chunk, err := wire.AppendChunk([]byte{kindRepChunk}, &wire.RegionChunk{
		Transfer: 1, Index: repIndexName, Last: true, Data: empty.appendTo(nil)})
	if err != nil {
		t.Fatal(err)
	}
	// The node answers a peer on the connection the peer opened.
	peers := []string{"127.0.0.1:9", "127.0.0.1:10"}
	conns := make([]net.Conn, len(peers))
	for i, addr := range peers {
		if conns[i], err = net.DialTimeout("tcp", n.Addr(), 2*time.Second); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
		if _, err := dialHandshake(conns[i], addr, n.sig, nil); err != nil {
			t.Fatalf("handshake: %v", err)
		}
		err := writePayload(conns[i], 2, appendRepBegin(nil, &repBeginMsg{
			Owner: NodeID(addr), Transfer: 1, Chunks: 1, Digest: empty.digest}))
		if err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		staged := map[uint64]bool{}
		execRead(t, n, func() {
			for _, st := range n.staging {
				staged[st.owner] = true
			}
		})
		return staged[NodeID(peers[0])] && staged[NodeID(peers[1])]
	})
	for i, conn := range conns {
		if err := writePayload(conn, 3, chunk); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for acked := false; !acked; {
			_, p, next, err := wire.ReadFrame(conn, buf)
			if err != nil {
				t.Fatalf("owner %d: no ack for its chunk: %v", i, err)
			}
			buf = next
			kind, body, err := splitMsg(p)
			if err != nil || kind != kindRepAck {
				continue
			}
			a, err := wire.DecodeAck(body)
			if err != nil {
				t.Fatal(err)
			}
			if a.Transfer != 1 || a.Seq != 0 {
				t.Fatalf("owner %d: ack for transfer %d, chunk %d; want transfer 1, chunk 0", i, a.Transfer, a.Seq)
			}
			acked = true
		}
	}
}

// TestReplicaPushReannouncesWhenIdle plays a replica that reports a
// divergent copy and then leaves the owner's first chunk unacked: after
// an idle round the owner must announce the stream again and resend the
// chunk, and the ack of the resent chunk must finish the push.
func TestReplicaPushReannouncesWhenIdle(t *testing.T) {
	cfg := testConfig(testData())
	cfg.Replicas = 1
	cfg.HeartbeatPeriod, cfg.AntiEntropyPeriod = time.Hour, time.Hour
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	conn, err := net.DialTimeout("tcp", n.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const peerAddr = "127.0.0.1:9"
	if _, err := dialHandshake(conn, peerAddr, n.sig, nil); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	// A copy that disagrees with the owner's empty delta.
	err = writePayload(conn, 2, wire.AppendDigest([]byte{kindRepDigest},
		wire.RegionDigest{Owner: n.id, Entries: 1, Digest: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	begins, chunks := 0, 0
	var transfer uint64
	for chunks < 2 {
		_, p, next, err := wire.ReadFrame(conn, buf)
		if err != nil {
			t.Fatalf("after %d headers and %d chunks: %v", begins, chunks, err)
		}
		buf = next
		kind, body, err := splitMsg(p)
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case kindRepBegin:
			b, err := decodeRepBegin(body)
			if err != nil {
				t.Fatal(err)
			}
			begins++
			transfer = b.Transfer
		case kindRepChunk:
			c, err := wire.DecodeChunk(body)
			if err != nil {
				t.Fatal(err)
			}
			if c.Transfer != transfer || c.Seq != 0 {
				t.Fatalf("chunk %d of transfer %d, want chunk 0 of %d", c.Seq, c.Transfer, transfer)
			}
			chunks++
		}
	}
	if begins != 2 {
		t.Fatalf("%d headers before the resent chunk, want the first and its re-announcement", begins)
	}
	err = writePayload(conn, 3, wire.AppendAck([]byte{kindRepAck}, wire.RegionAck{Transfer: transfer, Seq: 0}))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		done := false
		execRead(t, n, func() { done = len(n.pushes) == 0 })
		return done && n.Stats().RepairsSent == 1
	})
}
