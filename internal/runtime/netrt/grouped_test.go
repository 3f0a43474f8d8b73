package netrt

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
	"landmarkdht/internal/wire"
)

// silent is a ticker period that never fires within a test: a ring
// booted with it sends nothing the test did not ask for.
const silent = time.Hour

// startSilentRing boots size nodes with every ticker silent. Each node
// joins all earlier ones, so the handshakes alone give everyone the
// full view.
func startSilentRing(t *testing.T, size int, data DataConfig, tune func(*Config)) []*Node {
	t.Helper()
	var nodes []*Node
	var addrs []string
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	for i := 0; i < size; i++ {
		cfg := testConfig(data, addrs...)
		cfg.GossipPeriod, cfg.HeartbeatPeriod, cfg.AntiEntropyPeriod = silent, silent, silent
		if tune != nil {
			tune(&cfg)
		}
		n, err := Start(cfg)
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes = append(nodes, n)
		addrs = append(addrs, n.Addr())
	}
	waitConverged(t, nodes, size)
	return nodes
}

// pinID moves a lone node to ring position id, whatever port it was
// given: where a node sits decides what it owns and how Algorithm 5
// cuts a region there, so a fixture on an ephemeral port would be a
// different test every run.
func pinID(tb testing.TB, n *Node, id uint64) {
	tb.Helper()
	if err := n.rt.Do(func() {
		delete(n.members, n.id)
		n.id = id
		n.addMember(n.id, n.addr)
	}); err != nil {
		tb.Fatal(err)
	}
}

// markDown sets n's failure detector verdict on a member by hand.
func markDown(t *testing.T, n *Node, id uint64) {
	t.Helper()
	execRead(t, n, func() {
		st := n.hb[id]
		if st == nil {
			st = &hbState{}
			n.hb[id] = st
		}
		// Every probe so far counts as answered: a pong still in flight
		// from a member that has only just been closed must not halve the
		// suspicion and revive it.
		st.down, st.susp, st.acked = true, n.cfg.SuspectAfter, st.seq
	})
}

// sentTotal sums the frames the nodes' links have written, once the
// ring is quiet (two equal readings with empty queues).
func sentTotal(nodes []*Node) int64 {
	prev := int64(-1)
	for {
		var sent int64
		queued := 0
		for _, n := range nodes {
			s := n.Stats()
			sent += s.Sent
			queued += s.Queued
		}
		if queued == 0 && sent == prev {
			return sent
		}
		prev = sent
		time.Sleep(20 * time.Millisecond)
	}
}

// oracle is the expected state of a ring under test: the boot corpus
// minus what was deleted plus what was published.
type oracle struct {
	ds        *Dataset
	deleted   map[int32]bool
	published map[int32][]byte
}

func (o *oracle) answer(t *testing.T, qobj []byte, r float64) []ResultEntry {
	t.Helper()
	bf, err := o.ds.BruteForce(qobj, r)
	if err != nil {
		t.Fatal(err)
	}
	var want []ResultEntry
	for _, e := range bf {
		if !o.deleted[e.Obj] {
			want = append(want, e)
		}
	}
	for id, obj := range o.published {
		d, err := o.ds.Distance(qobj, obj)
		if err != nil {
			t.Fatal(err)
		}
		if d <= r {
			want = append(want, ResultEntry{Obj: id, Dist: d})
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Obj < want[j].Obj })
	return want
}

// TestGroupedExactness is the contract of the grouped protocol on rings
// of one to six members (a one-member ring sends every sub-cuboid back
// to itself; from two up the smallest member owns the wrapped arc),
// alternating the two metrics: with tombstones and published extras in
// place every answer is Complete and equal to brute force, ids and
// distances — first on the healthy ring from every member, then with
// one member dead and its region answered from a synced copy.
func TestGroupedExactness(t *testing.T) {
	for size := 1; size <= 6; size++ {
		data := DataConfig{Metric: "euclid", Seed: int64(40 + size), Objects: 600, Dim: 3, Landmarks: 4}
		if size%2 == 0 {
			data = DataConfig{Metric: "edit", Seed: int64(40 + size), Objects: 400, Landmarks: 4}
		}
		t.Run(fmt.Sprintf("%d-%s", size, data.Metric), func(t *testing.T) {
			groupedExactness(t, size, data)
		})
	}
}

func groupedExactness(t *testing.T, size int, data DataConfig) {
	nodes := startReplicatedRing(t, size, 1, data)
	if size > 1 {
		waitSynced(t, nodes, 1)
	}
	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(size)))
	radius := func() float64 {
		if data.Metric == "edit" {
			return float64(1 + rng.Intn(3))
		}
		return 0.15 + 0.35*rng.Float64()
	}
	or := &oracle{ds: ds, deleted: map[int32]bool{}, published: map[int32][]byte{}}
	for i := 0; i < 8; i++ {
		id, obj := int32(ds.N()+i), ds.RandomQuery(rng)
		if err := nodes[rng.Intn(size)].Publish(id, obj, 5*time.Second); err != nil {
			t.Fatalf("publish %d: %v", id, err)
		}
		or.published[id] = obj
		del := int32(rng.Intn(ds.N()))
		if err := nodes[rng.Intn(size)].Delete(del, nil, 5*time.Second); err != nil {
			t.Fatalf("delete %d: %v", del, err)
		}
		or.deleted[del] = true
	}
	check := func(phase string, live []*Node) {
		t.Helper()
		for i := 0; i < 4*len(live); i++ {
			qobj, r := ds.RandomQuery(rng), radius()
			out, err := live[i%len(live)].Query(qobj, r, 5*time.Second)
			if err != nil {
				t.Fatalf("%s query %d: %v", phase, i, err)
			}
			if !out.Complete {
				t.Fatalf("%s query %d incomplete (dropped %d)", phase, i, out.Dropped)
			}
			if want := or.answer(t, qobj, r); !slices.Equal(out.Entries, want) {
				t.Fatalf("%s query %d: got %d entries, brute force %d", phase, i, len(out.Entries), len(want))
			}
		}
	}
	check("healthy", nodes)
	if size == 1 {
		return
	}

	// Kill one member once its successor's copy has caught up with the
	// mutations, and tell the survivors: its region must now come from
	// that copy, decomposed at the dead owner's position.
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].id < nodes[j].id })
	v := rng.Intn(size)
	victim, holder := nodes[v], nodes[(v+1)%size]
	waitCaughtUp(t, victim, holder)
	victim.Close()
	live := slices.Delete(slices.Clone(nodes), v, v+1)
	for _, n := range live {
		markDown(t, n, victim.id)
	}
	check("failover", live)
}

// groupedFixture is one real node, pinned to the corpus' median key,
// with a hand-built view: three more members, evenly spaced round the
// ring from the node's own position, at addresses nothing listens on — so whatever the node sends stays in
// its link queues, where the test can read it. The member opposite the
// node is marked down and there are no replicas.
type groupedFixture struct {
	n       *Node
	ids     [4]uint64 // ids[0] is the node itself
	addrs   [4]string
	regions []query.Region // the eight cuboids of prefix length 3, whole cube
}

func newGroupedFixture(t *testing.T) *groupedFixture {
	t.Helper()
	cfg := testConfig(testData())
	cfg.GossipPeriod, cfg.HeartbeatPeriod, cfg.AntiEntropyPeriod = silent, silent, silent
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	pinID(t, n, n.data.Cols().keys[n.data.N()/2])
	f := &groupedFixture{n: n}
	f.ids[0], f.addrs[0] = n.id, n.addr
	execRead(t, n, func() {
		for i := 1; i < 4; i++ {
			f.ids[i], f.addrs[i] = n.id+uint64(i)<<62, fmt.Sprintf("127.0.0.1:%d", i)
			n.addMember(f.ids[i], f.addrs[i])
		}
	})
	markDown(t, n, f.ids[2])
	part := n.data.Part()
	whole := query.Region{Cube: part.AllBounds()}
	for i := 0; i < 8; i++ {
		reg, ok := query.Restrict(part, whole, lph.Key(i)<<61, 3)
		if !ok {
			t.Fatalf("cuboid %d of the whole cube is empty", i)
		}
		f.regions = append(f.regions, reg)
	}
	return f
}

// sentFrame is one frame found in a link queue.
type sentFrame struct {
	to   string
	kind byte
	body []byte
}

// run hands msg to the node's process — as a message from a peer when
// arrived, as the origin's own otherwise — and returns every frame it
// queued.
func (f *groupedFixture) run(t *testing.T, msg *queryMsg, arrived bool) []sentFrame {
	t.Helper()
	return f.emitted(t, func() { f.n.process(msg, arrived) })
}

// emitted runs fn on the node's executor and returns every frame it
// queued.
func (f *groupedFixture) emitted(t *testing.T, fn func()) []sentFrame {
	t.Helper()
	execRead(t, f.n, fn)
	var out []sentFrame
	f.n.linkMu.Lock()
	defer f.n.linkMu.Unlock()
	for addr, l := range f.n.links {
		l.mu.Lock()
		for _, p := range l.queue {
			out = append(out, sentFrame{to: addr, kind: p[0], body: p[1:]})
		}
		l.queue = nil
		l.mu.Unlock()
	}
	return out
}

// TestProcessSplitsCreditOncePerMessage hands the fixture's node three
// messages and reads what it emits for each: the frames, their credit
// shares — every one positive, summing exactly to the message's — and
// which of the query's brute-force answers they cover, a forwarded
// region up to the cut its owner answers it to and the local result by
// its entries.
//   - The origin, from the whole cube: Algorithm 5 runs here at every
//     owner's position, so each live owner gets one kindQuery whose
//     regions all start in its arc, the node answers its own arc in one
//     kindResult, the down owner's share comes home as one kindDrop,
//     and every answer but the down owner's is covered exactly once —
//     nothing is left for a receiver to cut.
//   - A receiver, handed the cuboids that start in its arc as cut: one
//     kindResult holding exactly the answers up to its cut, no
//     kindQuery.
//   - Views in disagreement: handed, as cut, a region whose first key
//     another live member owns, the node cuts it afresh there, and the
//     region is still covered, the part above the cut by the node
//     itself.
func TestProcessSplitsCreditOncePerMessage(t *testing.T) {
	f := newGroupedFixture(t)
	n := f.n
	part := n.data.Part()
	ds, err := BuildDataset(testData())
	if err != nil {
		t.Fatal(err)
	}
	qobj := ds.RandomQuery(rand.New(rand.NewSource(8)))
	const credit, r, ttl = uint64(1_000_003), 0.6, 9
	bf, err := ds.BruteForce(qobj, r)
	if err != nil {
		t.Fatal(err)
	}
	member := map[string]uint64{}
	for i, addr := range f.addrs {
		member[addr] = f.ids[i]
	}
	keyOf := func(e ResultEntry) lph.Key { return part.Unring(ds.c.Key(int(e.Obj))) }
	ownerOf := func(ring uint64) (owner uint64) {
		execRead(t, n, func() { owner = n.successor(ring) })
		return owner
	}
	arcOf := func(reg query.Region) uint64 {
		lo, _ := lph.CuboidSpan(reg.PreKey, reg.PreLen)
		return ownerOf(uint64(part.Ring(lo)))
	}
	within := func(key lph.Key, reg query.Region, surrogate uint64) bool {
		return lph.SamePrefix(key, reg.PreKey, reg.PreLen) && key <= n.cutAt(reg, surrogate)
	}

	type emission struct {
		queries map[uint64][]query.Region // forwarded regions, by next hop
		local   []ResultEntry
		results int
		drops   int
		covered map[int32]int
	}
	run := func(name string, regions []query.Region, arrived bool) emission {
		t.Helper()
		msg := &queryMsg{Origin: f.ids[1], OriginAddr: f.addrs[1], Epoch: 5, QID: 6,
			Credit: credit, Regions: regions, QObj: qobj, R: r, TTL: ttl}
		em := emission{queries: map[uint64][]query.Region{}, covered: map[int32]int{}}
		var sum uint64
		for _, fr := range f.run(t, msg, arrived) {
			var c uint64
			switch fr.kind {
			case kindQuery:
				fq, err := decodeQuery(fr.body)
				if err != nil {
					t.Fatal(err)
				}
				to := member[fr.to]
				if _, twice := em.queries[to]; twice || fq.TTL != ttl-1 || fq.Origin != msg.Origin || fq.QID != msg.QID || !slices.Equal(fq.QObj, qobj) || len(fq.Regions) == 0 {
					t.Fatalf("%s: forward to %s: %+v", name, fr.to, fq)
				}
				em.queries[to], c = fq.Regions, fq.Credit
				for _, reg := range fq.Regions {
					if owner := arcOf(reg); owner != to {
						t.Fatalf("%s: region %x/%d travelled to %016x, its first key is %016x's", name, reg.PreKey, reg.PreLen, to, owner)
					}
					for _, e := range bf {
						if within(keyOf(e), reg, to) {
							em.covered[e.Obj]++
						}
					}
				}
			case kindResult:
				res, err := decodeResult(fr.body)
				if err != nil {
					t.Fatal(err)
				}
				if fr.to != msg.OriginAddr || res.Epoch != msg.Epoch || res.QID != msg.QID {
					t.Fatalf("%s: result to %s: epoch %d qid %d", name, fr.to, res.Epoch, res.QID)
				}
				em.results++
				em.local, c = res.Entries, res.Credit
				for _, e := range res.Entries {
					em.covered[e.Obj]++
				}
			case kindDrop:
				d, err := decodeDrop(fr.body)
				if err != nil {
					t.Fatal(err)
				}
				if fr.to != msg.OriginAddr {
					t.Fatalf("%s: drop went to %s", name, fr.to)
				}
				em.drops++
				c = d.Credit
			default:
				t.Fatalf("%s: unexpected frame kind %d to %s", name, fr.kind, fr.to)
			}
			if c == 0 {
				t.Fatalf("%s: a credit share of 0 was emitted", name)
			}
			sum += c
		}
		if sum != credit {
			t.Fatalf("%s: shares sum to %d, the message carried %d", name, sum, credit)
		}
		if em.results > 1 || em.drops > 1 {
			t.Fatalf("%s: %d result and %d drop frames, want at most one each", name, em.results, em.drops)
		}
		return em
	}
	// covers requires em to cover exactly the brute-force answers want
	// picks, each once, and the local result to hold its entries at
	// their brute-force distances.
	covers := func(name string, em emission, want func(e ResultEntry) bool) {
		t.Helper()
		answered := 0
		for _, e := range bf {
			got, w := em.covered[e.Obj], 0
			if want(e) {
				w, answered = 1, answered+1
			}
			if got != w {
				t.Fatalf("%s: answer %d (key %x, owner %016x) covered %d times, want %d", name, e.Obj, keyOf(e), ownerOf(ds.c.Key(int(e.Obj))), got, w)
			}
		}
		for _, e := range em.local {
			if i := slices.IndexFunc(bf, func(b ResultEntry) bool { return b.Obj == e.Obj }); i < 0 || bf[i] != e {
				t.Fatalf("%s: the local result holds %+v, not a brute-force answer", name, e)
			}
		}
		if answered == 0 {
			t.Fatalf("%s: the case covers no answer", name)
		}
	}

	// The origin.
	whole := query.Region{Cube: part.AllBounds()}
	em := run("origin", []query.Region{whole}, false)
	if len(em.queries) != 2 || em.queries[f.ids[1]] == nil || em.queries[f.ids[3]] == nil || em.results != 1 || em.drops != 1 {
		t.Fatalf("origin: forwards to %d members, %d results, %d drops; want one each to %016x and %016x, one result, one drop",
			len(em.queries), em.results, em.drops, f.ids[1], f.ids[3])
	}
	covers("origin", em, func(e ResultEntry) bool { return ownerOf(ds.c.Key(int(e.Obj))) != f.ids[2] })
	for _, e := range em.local {
		if ownerOf(ds.c.Key(int(e.Obj))) != n.id {
			t.Fatalf("origin: the local result holds answer %d, which the node does not own", e.Obj)
		}
	}

	// A receiver.
	var mine []query.Region
	cutsMine := false
	for _, reg := range f.regions {
		if arcOf(reg) == n.id {
			mine = append(mine, reg)
			cutsMine = cutsMine || n.cutAt(reg, n.id) != ^lph.Key(0)
		}
	}
	if !cutsMine {
		t.Fatal("no cuboid of the node's arc holds its position")
	}
	em = run("receiver", mine, true)
	if len(em.queries) != 0 || em.results != 1 || em.drops != 0 {
		t.Fatalf("receiver: forwards to %d members, %d results, %d drops; want only one result", len(em.queries), em.results, em.drops)
	}
	covers("receiver", em, func(e ResultEntry) bool {
		return slices.ContainsFunc(mine, func(reg query.Region) bool { return within(keyOf(e), reg, n.id) })
	})

	// Views in disagreement: the cuboid holding the member before this
	// node, which this node's view says that member owns. What lies above
	// that member's position is this node's.
	at := slices.IndexFunc(f.regions, func(reg query.Region) bool {
		return arcOf(reg) == f.ids[3] && n.cutAt(reg, f.ids[3]) != ^lph.Key(0)
	})
	if at < 0 {
		t.Fatal("no cuboid holds the position of the member before the node")
	}
	other := f.regions[at]
	em = run("disagreeing", []query.Region{other}, true)
	if len(em.queries) != 1 || len(em.queries[f.ids[3]]) == 0 || em.queries[f.ids[3]][0].PreKey != other.PreKey || em.queries[f.ids[3]][0].PreLen != other.PreLen || em.results != 1 {
		t.Fatalf("disagreeing: forwards %v and %d results; want the region to %016x and one result", em.queries, em.results, f.ids[3])
	}
	covers("disagreeing", em, func(e ResultEntry) bool {
		return lph.SamePrefix(keyOf(e), other.PreKey, other.PreLen) && ownerOf(ds.c.Key(int(e.Obj))) != f.ids[2]
	})

	// Credit that cannot cover the parts, and an exhausted TTL, send the
	// whole credit home in one drop and forward nothing.
	for name, bad := range map[string]queryMsg{
		"underfunded": {Credit: 3, TTL: ttl},
		"ttl":         {Credit: credit, TTL: 0},
	} {
		bad.Origin, bad.OriginAddr, bad.Regions, bad.QObj, bad.R = f.ids[1], f.addrs[1], f.regions, qobj, r
		frames := f.run(t, &bad, true)
		if len(frames) != 1 || frames[0].kind != kindDrop {
			t.Fatalf("%s: emitted %d frames, want one drop", name, len(frames))
		}
		if d, err := decodeDrop(frames[0].body); err != nil || d.Credit != bad.Credit {
			t.Fatalf("%s: the drop carries %+v (%v), want the whole credit", name, d, err)
		}
	}
}

// TestOneResultFramePerMessage sends a hand-built message with five
// regions, all wholly owned by one member, across a real link: the
// owner writes exactly one frame back, holding every region's entries.
func TestOneResultFramePerMessage(t *testing.T) {
	data := testData()
	nodes := startSilentRing(t, 2, data, nil)
	// A populated deep cuboid whose lowest key a member owns, and which
	// does not contain that member's own position, is wholly its own and
	// decomposes no further there.
	part := nodes[0].data.Part()
	whole := query.Region{Cube: part.AllBounds()}
	var origin, owner *Node
	var regions []query.Region
	for o := 0; o < 2 && len(regions) < 5; o++ {
		origin, owner, regions = nodes[1-o], nodes[o], nil
		for i := 0; i < 256 && len(regions) < 5; i++ {
			reg, _ := query.Restrict(part, whole, lph.Key(i)<<56, 8)
			populated := slices.ContainsFunc(owner.data.Cols().keys, func(k lph.Key) bool {
				return lph.SamePrefix(k, reg.PreKey, reg.PreLen)
			})
			var owned bool
			execRead(t, owner, func() { owned = owner.successor(reg.PreKey) == owner.id })
			if populated && owned && !lph.SamePrefix(owner.id, reg.PreKey, reg.PreLen) {
				regions = append(regions, reg)
			}
		}
	}
	if len(regions) < 5 {
		t.Fatal("no member wholly owns five populated depth-8 cuboids")
	}

	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	qobj := ds.RandomQuery(rand.New(rand.NewSource(3)))
	const r = 2.0 // everything: the regions alone decide the answer
	var want []ResultEntry
	bf, err := ds.BruteForce(qobj, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range bf {
		key := part.Unring(ds.c.Key(int(e.Obj)))
		for _, reg := range regions {
			if lph.SamePrefix(key, reg.PreKey, reg.PreLen) {
				want = append(want, e)
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("the five regions hold nothing")
	}

	before := sentTotal(nodes)
	ownerBefore := owner.Stats().Sent
	done := make(chan QueryOutcome, 1)
	execRead(t, origin, func() {
		oq := &originQuery{qid: 1 << 40, total: creditTotal, results: map[int32]float64{},
			done: func(out QueryOutcome, _ error) { done <- out }}
		oq.deadline = origin.rt.AfterFunc(5*time.Second, func() { origin.expire(oq.qid) })
		origin.queries[oq.qid] = oq
		origin.sendRaw(owner.addr, appendQuery(nil, &queryMsg{Origin: origin.id, OriginAddr: origin.addr,
			Epoch: origin.epoch, QID: oq.qid, Credit: creditTotal, Regions: regions, QObj: qobj, R: r, TTL: 4}))
	})
	out := <-done
	if !out.Complete || !slices.Equal(out.Entries, want) {
		t.Fatalf("complete=%v with %d entries, the regions hold %d", out.Complete, len(out.Entries), len(want))
	}
	// sentTotal first: it waits for the writers' counters to settle.
	if got := sentTotal(nodes) - before; got != 2 {
		t.Fatalf("the exchange cost %d frames, want 2", got)
	}
	if got := owner.Stats().Sent - ownerBefore; got != 1 {
		t.Fatalf("the owner wrote %d frames for one %d-region message, want 1", got, len(regions))
	}
}

// TestOneRoundTripPerMember: while views agree, the origin cuts every
// region at its owner's position, so a query costs one kindQuery from
// the origin to each other member it touches and one kindResult back,
// and no member but the origin forwards anything. For queries from
// every member of a four-member ring, each other member writes at most
// one frame, and the origin exactly as many as they wrote.
func TestOneRoundTripPerMember(t *testing.T) {
	data := testData()
	nodes := startSilentRing(t, 4, data, nil)
	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var touched, widest int64
	for i := 0; i < 16; i++ {
		origin := nodes[i%len(nodes)]
		qobj, r := ds.RandomQuery(rng), 0.1+0.4*rng.Float64()
		want, err := ds.BruteForce(qobj, r)
		if err != nil {
			t.Fatal(err)
		}
		sentTotal(nodes) // quiet before the counters are read
		before := make([]int64, len(nodes))
		for j, n := range nodes {
			before[j] = n.Stats().Sent
		}
		out, err := origin.Query(qobj, r, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Complete || !slices.Equal(out.Entries, want) {
			t.Fatalf("query %d: complete=%v with %d entries, brute force %d", i, out.Complete, len(out.Entries), len(want))
		}
		sentTotal(nodes)
		answered, fromOrigin := int64(0), int64(0)
		for j, n := range nodes {
			sent := n.Stats().Sent - before[j]
			switch {
			case n == origin:
				fromOrigin = sent
			case sent > 1:
				t.Fatalf("query %d from %016x: member %016x wrote %d frames, want at most its one result", i, origin.id, n.id, sent)
			default:
				answered += sent
			}
		}
		if fromOrigin != answered {
			t.Fatalf("query %d from %016x: the origin wrote %d frames, %d members answered", i, origin.id, fromOrigin, answered)
		}
		touched, widest = touched+answered, max(widest, answered)
	}
	t.Logf("16 queries were answered by %d members besides their origin, at most %d for one", touched, widest)
	if widest < 2 {
		t.Fatal("no query reached two members besides its origin")
	}
}

// TestSendResultSplitsOversizeAnswer: an answer of more entries than one
// frame holds leaves as several kindResult frames, each within the frame
// limit, the entries in order and each once, the credit shares positive
// and summing exactly to the share the answer was given; a share too
// small to divide comes home whole, as one drop.
func TestSendResultSplitsOversizeAnswer(t *testing.T) {
	f := newGroupedFixture(t)
	q := &queryMsg{Origin: f.ids[1], OriginAddr: f.addrs[1], Epoch: 5, QID: 6}
	ents := make([]ResultEntry, 2*maxResultEntries+5)
	for i := range ents {
		ents[i] = ResultEntry{Obj: int32(i), Dist: float64(i) / 8}
	}
	for _, tc := range []struct {
		entries, frames int
	}{{0, 1}, {8, 1}, {maxResultEntries, 1}, {maxResultEntries + 1, 2}, {len(ents), 3}} {
		const credit = uint64(1_000_003)
		var got []ResultEntry
		var sum uint64
		frames := f.emitted(t, func() { f.n.sendResult(q, credit, ents[:tc.entries]) })
		for _, fr := range frames {
			if fr.kind != kindResult || fr.to != q.OriginAddr || 1+len(fr.body) > wire.MaxFramePayload {
				t.Fatalf("%d entries: a kind-%d frame of %d bytes to %s", tc.entries, fr.kind, 1+len(fr.body), fr.to)
			}
			res, err := decodeResult(fr.body)
			if err != nil {
				t.Fatal(err)
			}
			if res.Credit == 0 || res.Epoch != q.Epoch || res.QID != q.QID {
				t.Fatalf("%d entries: a frame carries credit %d for epoch %d qid %d", tc.entries, res.Credit, res.Epoch, res.QID)
			}
			sum += res.Credit
			got = append(got, res.Entries...)
		}
		if len(frames) != tc.frames || sum != credit || !slices.Equal(got, ents[:tc.entries]) {
			t.Fatalf("%d entries left as %d frames (want %d) with %d entries and credit %d of %d",
				tc.entries, len(frames), tc.frames, len(got), sum, credit)
		}
	}
	frames := f.emitted(t, func() { f.n.sendResult(q, 2, ents) })
	if len(frames) != 1 || frames[0].kind != kindDrop {
		t.Fatalf("credit 2 over three frames: emitted %d frames, want one drop", len(frames))
	}
	if d, err := decodeDrop(frames[0].body); err != nil || d.Credit != 2 {
		t.Fatalf("the drop carries %+v (%v), want the whole credit", d, err)
	}
}

// TestOversizeAnswerCrossesTheRing: a member whose share of an answer
// does not fit one frame still answers. Two members hold a corpus large
// enough that the larger share is past maxResultEntries whatever ports
// they were given; the other member asks for everything. The answer is
// Complete, brute-force exact and back long before the deadline, and
// nothing was shed. (When one oversize frame was built, the link shed it
// uncounted and the query sat out its deadline with Dropped 0.)
func TestOversizeAnswerCrossesTheRing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 180 000-object corpus three times")
	}
	data := DataConfig{Metric: "euclid", Seed: 7, Objects: 180_000, Dim: 2, Landmarks: 2}
	nodes := startSilentRing(t, 2, data, func(cfg *Config) { cfg.Deadline = 5 * time.Second })
	origin, owner := nodes[0], nodes[1]
	var share [2]int
	for i, n := range nodes {
		execRead(t, n, func() { share[i] = n.ownedBoot() })
	}
	if share[0] > share[1] {
		origin, owner = owner, origin
	}
	larger := max(share[0], share[1])
	if larger <= maxResultEntries {
		t.Fatalf("the larger share is %d entries: one frame holds %d", larger, maxResultEntries)
	}
	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	qobj := ds.RandomQuery(rand.New(rand.NewSource(1)))
	want, err := ds.BruteForce(qobj, 100)
	if err != nil {
		t.Fatal(err)
	}
	sentBefore := owner.Stats().Sent
	start := time.Now()
	out, err := origin.Query(qobj, 100, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2500*time.Millisecond {
		t.Fatalf("the query took %v: it ended by its deadline", took)
	}
	if !out.Complete || !slices.Equal(out.Entries, want) {
		t.Fatalf("complete=%v dropped=%d with %d entries, brute force %d", out.Complete, out.Dropped, len(out.Entries), len(want))
	}
	if got := sentTotal([]*Node{owner}) - sentBefore; got < 2 {
		t.Fatalf("the owner answered %d entries in %d frames", larger, got)
	}
	for _, n := range nodes {
		if shed := n.Stats().Shed; shed != 0 {
			t.Fatalf("node %016x shed %d frames", n.id, shed)
		}
	}

	// The merged answer is past what one client frame holds, and client
	// replies are one frame: the client is told so, with the count, at
	// once — not left to its timeout.
	c, err := Dial(origin.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start = time.Now()
	_, err = c.Query(qobj, 100, 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("answer of %d entries does not fit", len(want))) {
		t.Fatalf("client query for %d entries: %v", len(want), err)
	}
	if took := time.Since(start); took > 2500*time.Millisecond {
		t.Fatalf("the refusal took %v", took)
	}
}

// TestDownOwnerLosesOnlyItsRegions: without replicas the local shares
// whose owner is a dead member are lost, and say so — the query is
// incomplete — while everything else is still answered: the origin cuts
// a region at its owner's position whether that owner is alive or not,
// so the sub-cuboids above a dead owner's share reach their own owners.
// Each incomplete answer is exactly the survivors' part of brute force.
func TestDownOwnerLosesOnlyItsRegions(t *testing.T) {
	data := testData()
	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	type query struct {
		qobj []byte
		r    float64
		bf   []ResultEntry
	}
	rng := rand.New(rand.NewSource(12))
	queries := make([]query, 12)
	for i := range queries {
		q := &queries[i]
		q.qobj, q.r = ds.RandomQuery(rng), 0.3+0.3*rng.Float64()
		if q.bf, err = ds.BruteForce(q.qobj, q.r); err != nil {
			t.Fatal(err)
		}
	}
	// The victim owns part, not all, of some query's answer, so that
	// query must come back incomplete and hold the rest. Ring positions
	// come from ephemeral ports, and a ring where no member qualifies
	// (one member's arc holding every answer or none of each) is
	// replaced by another.
	var nodes []*Node
	var victim *Node
	for ring := 0; victim == nil; ring++ {
		if ring == 5 {
			t.Fatal("in 5 rings no member owned part, not all, of a query's answer")
		}
		nodes = startSilentRing(t, 4, data, nil)
		execRead(t, nodes[0], func() {
			for _, q := range queries {
				owned := map[uint64]int{}
				for _, e := range q.bf {
					owned[nodes[0].successor(ds.c.Key(int(e.Obj)))]++
				}
				for _, n := range nodes {
					if c := owned[n.id]; victim == nil && c > 0 && c < len(q.bf) {
						victim = n
					}
				}
			}
		})
		if victim == nil {
			for _, n := range nodes {
				n.Close()
			}
		}
	}
	victim.Close()
	live := slices.DeleteFunc(slices.Clone(nodes), func(n *Node) bool { return n == victim })
	for _, n := range live {
		markDown(t, n, victim.id)
	}
	partial := 0
	for i, q := range queries {
		qobj, r, bf := q.qobj, q.r, q.bf
		origin := live[i%len(live)]
		out, err := origin.Query(qobj, r, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if out.Complete {
			if !slices.Equal(out.Entries, bf) {
				t.Fatalf("query %d: complete but inexact", i)
			}
			continue
		}
		var survivors []ResultEntry
		execRead(t, origin, func() {
			for _, e := range bf {
				if origin.successor(ds.c.Key(int(e.Obj))) != victim.id {
					survivors = append(survivors, e)
				}
			}
		})
		if out.Dropped == 0 || !slices.Equal(out.Entries, survivors) {
			t.Fatalf("query %d: dropped=%d, %d entries, not the %d the survivors own", i, out.Dropped, len(out.Entries), len(survivors))
		}
		if len(out.Entries) > 0 {
			partial++
		}
	}
	if partial == 0 {
		t.Fatal("no incomplete query kept the answers the survivors own")
	}
}

// TestTTLBoundsFailoverPingPong: two survivors each believe the other
// may hold the dead owner's copy (replication is on, nothing ever
// synced) and hand its regions back and forth. TTL ends that: the
// credit comes home as a drop after a bounded number of frames, long
// before the deadline.
func TestTTLBoundsFailoverPingPong(t *testing.T) {
	data := testData()
	const ttl = forwardTTL
	nodes := startSilentRing(t, 3, data, func(cfg *Config) {
		cfg.Replicas, cfg.Deadline = 2, 10*time.Second
	})
	ds, err := BuildDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	qobj := ds.RandomQuery(rand.New(rand.NewSource(4)))
	bf, err := ds.BruteForce(qobj, 0.6)
	if err != nil || len(bf) == 0 {
		t.Fatalf("brute force: %d answers, %v", len(bf), err)
	}
	// Ring positions come from ephemeral ports, so the victim is whoever
	// owns one of the query's answers: a fixed one owned nothing the query
	// touched once in 70 runs, and the answer was, rightly, complete.
	var owner uint64
	execRead(t, nodes[0], func() { owner = nodes[0].successor(ds.c.Key(int(bf[0].Obj))) })
	at := slices.IndexFunc(nodes, func(n *Node) bool { return n.id == owner })
	victim, live := nodes[at], slices.Delete(slices.Clone(nodes), at, at+1)
	victim.Close()
	for _, n := range live {
		markDown(t, n, victim.id)
	}
	before := sentTotal(live)
	start := time.Now()
	out, err := live[0].Query(qobj, 0.6, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("the query took %v: it ended by its deadline, not by TTL", took)
	}
	if out.Complete || out.Dropped == 0 {
		t.Fatalf("complete=%v dropped=%d, want an honest incomplete answer", out.Complete, out.Dropped)
	}
	if !subsetIDs(out.Entries, bf) {
		t.Fatal("incomplete answer is not a subset of brute force")
	}
	// Every bounce is one frame and may leave one result and one drop
	// behind it.
	if got := sentTotal(live) - before; got > 3*ttl {
		t.Fatalf("%d frames for one query under TTL %d", got, ttl)
	}
}
