// Package netrt deploys the landmark index as real OS processes: each
// node is a TCP listener plus a set of reconnecting peer links, and a
// ring is N processes bootstrapping over localhost (or any network).
//
// # Relationship to the other runtimes
//
// The simulated runtime (runtime/simrt) executes core and chord in
// one address space, where delivery callbacks carry prebound local
// state across "nodes". The live runtime (runtime/livert) runs no
// protocol of its own: it is netrt's executor. A multi-process ring
// has no shared memory, so netrt speaks a fully self-describing frame
// protocol over the existing internal/wire [id|len|payload] framing:
// membership handshake and gossip, the paper's surrogate-refinement
// query decomposition (Algorithm 5), and credit-based completion
// accounting replace the in-process token bookkeeping. Every frame —
// peer and client alike, handshakes and gossip included — is a
// fixed-layout, lossless binary message (proto.go). The livert
// executor is reused verbatim as each node's single-threaded protocol
// goroutine, clock, and seeded random source.
//
// # Link layer
//
// Traffic to a peer goes through a link (see link.go): dial-on-demand,
// a single active connection per peer pair (smaller-dialer-ID wins),
// automatic reconnect with seeded exponential backoff + jitter, and a
// bounded outbound queue that sheds (and counts) rather than ever
// blocking the protocol executor; a payload over wire.MaxFramePayload
// is shed the same way (an answer that large travels as several
// frames). Queued frames survive reconnects and are delivered at most
// once. Reader goroutines decode the binary frames themselves and post
// the messages to the executor, so decoding is not serialised behind
// it; a hostile or corrupt stream (typed wire.FrameError, from the
// framing or from any binary decoder) drops the link.
//
// # Data and membership
//
// Every process holds the same deterministic corpus (DataConfig; the
// handshake's signature, over the corpus and the protocol version,
// refuses to link disagreeing nodes) and owns the entries whose ring
// key it succeeds under the current membership view. The corpus' index
// entries, and its objects beside them, are stored once, flat, sorted by
// key (data.go's columns and dataset), so what a member owns is its arc
// of that order — one or two runs, found by binary search on every
// membership change — and what a query refines there it reads in order.
// What no member can derive is the online publishes and deletes: each
// node keeps those it applied as owner as its delta (delta.go), hands
// an item to the member that owns its key when the ring grows, and with
// Config.Replicas keeps its ring successors' copies of the delta current
// (replica.go) — a copy is the delta and nothing else. Every boot builds
// the corpus from DataConfig; Config.DataDir adds a journal of the
// delta's mutations, replayed on top of the build (durable.go).
// Membership is a full member list, learned at handshake, spread by
// join announcements and periodic gossip; members are never evicted,
// so a SIGKILLed process that restarts with the same address (same
// node ID) reconnects and resumes ownership with no protocol change.
//
// # Queries and completeness
//
// A query starts with the full index-space region and a credit of
// 2⁶². A query message carries every region bound for one next hop
// (Algorithm 3). Its receiver decomposes the regions it is the
// surrogate of (Algorithm 5), groups everything else by next hop,
// splits the credit once so the shares always sum exactly, forwards one
// message per hop, and answers its own share in one pass: each region
// is one walk of the leaf boxes over its run of the sorted columns,
// filtered by the delta it is answered against — the node's own, or its
// copy of a down owner's, whose regions it decomposes at the owner's
// position — then exact-distance refinement (query.go). Credit comes home in Result
// frames — or Drop frames for regions that are unanswerable (TTL
// exhausted, owner down with no replica, malformed query). The origin
// completes when all credit is home; Complete means none of it came
// back as Drop and the deadline did not expire, and a Complete answer
// is exact: under a consistent view the decomposition covers the region
// exactly once, and duplicate coverage under view skew is removed by
// merging results per object. Anything less is an honest subset.
package netrt

import (
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"landmarkdht/internal/query"
	"landmarkdht/internal/runtime"
	"landmarkdht/internal/runtime/livert"
	"landmarkdht/internal/wal"
)

// Config parameterizes one ring node.
type Config struct {
	// Listen is the TCP listen address ("127.0.0.1:0" for an ephemeral
	// port). The node's identity is derived from the bound address, so
	// restarting with the same explicit address resumes the same ring
	// position.
	Listen string
	// Join lists peer addresses to bootstrap from (empty for the first
	// node of a ring).
	Join []string
	// Data pins the deterministic corpus (must match across the ring).
	Data DataConfig
	// DataDir, when set, makes node state durable: every online publish
	// and delete the node accepts as owner is journaled to this
	// directory before it is acknowledged, and a restart on the same
	// address replays them on top of the corpus it builds. Each node
	// needs its own directory. A directory written for a different Data
	// config, or a corrupt journal, is a startup error.
	DataDir string
	// Deadline bounds a query: when it expires before all credit is
	// home, the query finishes incomplete (default 5s).
	Deadline time.Duration
	// GossipPeriod is the anti-entropy interval (default 500ms).
	GossipPeriod time.Duration
	// Replicas is the replication factor: every member keeps this many
	// ring successors current with its delta — its region's tombstones
	// and published extras, the one part of it they cannot build — by
	// fan-out, repaired over the bulk region-transfer frames, and
	// queries for a down owner are answered from a synced copy so they
	// stay complete and exact while the owner is dead. 0 (the default)
	// disables replication; the failure detector still runs.
	Replicas int
	// HeartbeatPeriod is the failure-detector probe interval (default
	// 250ms).
	HeartbeatPeriod time.Duration
	// SuspectAfter is how many consecutive unanswered heartbeat probes
	// mark a member down (default 4). Suspicion halves on every answered
	// probe and a down member comes back as soon as it answers again —
	// never a permanent blacklist, matching the link layer's reconnect
	// policy.
	SuspectAfter int
	// AntiEntropyPeriod is the owner↔replica digest-exchange interval
	// (default 1s). Divergence detected by an exchange schedules a bulk
	// re-stream of the owner's delta; the same tick retries hand-offs.
	AntiEntropyPeriod time.Duration
	// Faults injects transport-level failures (frame drops, connection
	// kills) into peer links through runtime.LinkFaults.
	Faults *runtime.FaultPolicy
	// Logf, when set, receives one line per membership and link event.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	c.Data.fillDefaults()
	if c.Deadline <= 0 {
		c.Deadline = 5 * time.Second
	}
	if c.GossipPeriod <= 0 {
		c.GossipPeriod = 500 * time.Millisecond
	}
	if c.Replicas < 0 {
		c.Replicas = 0
	}
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = 250 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 4
	}
	if c.AntiEntropyPeriod <= 0 {
		c.AntiEntropyPeriod = time.Second
	}
}

// Node is one ring member: a listener, its peer links, the owned runs
// of the deterministic corpus, and the origin-side state of queries it
// is running for clients.
type Node struct {
	cfg   Config
	id    uint64
	addr  string
	sig   uint64
	epoch uint64 // process incarnation, stamps this node's queries
	data  corpus
	mem   *colMem // the mapping data's columns are carved from, nil on the heap; Close releases it

	// Durable-state provenance, fixed at Start.
	recovered bool // an earlier boot initialised the data dir; its mutations were replayed
	replayed  int  // durable records read from it

	rt *livert.Runtime // protocol executor, clock, seeded rand
	ln net.Listener

	// Executor-owned state (only touched on rt's protocol goroutine).
	members map[uint64]string
	ring    []uint64 // sorted member IDs
	runs    [2]run   // the boot entries this node owns under members: its arc of the key-ordered columns
	queries map[uint64]*originQuery
	nextQID uint64
	tested  uint64 // entries tested against a query cube (under the leaf boxes met, boot rows and extras, and a delta's tail), cumulative
	refined uint64 // of those, the ones inside it and alive: exact distances computed, cumulative
	leaves  leafState
	cubes   query.Cubes // process's sub-cuboids, reset per message
	gossip  *runtime.Ticker

	// Replication and failure detection (executor-owned; see failure.go,
	// replica.go, publish.go).
	hb          map[uint64]*hbState // heartbeat state per known member
	heartbeat   *runtime.Ticker
	antiEntropy *runtime.Ticker
	mine        delta                   // this node's mutations: what its region holds beyond the corpus, less what it lost
	handing     map[int32]bool          // delta items on their way to the member that owns them now, by id
	copies      map[uint64]*replicaCopy // replica copies held here, by owner
	pushes      map[uint64]*repPush     // outbound replica streams, by target
	staging     map[uint64]*repStage    // inbound replica streams, by owner
	nextXfer    uint64
	nextRID     uint64
	pubs        map[uint64]*pendingPub // in-flight mutations originated here, by rid

	store *wal.Store // durable journal; nil without Config.DataDir

	// memberSnap mirrors the membership for non-executor contexts
	// (handshakes); it holds a []Member sorted by ID.
	memberSnap atomic.Value

	linkMu sync.Mutex
	links  map[string]*link

	clientMu sync.Mutex
	clients  map[net.Conn]struct{}

	frameID       atomic.Uint64
	framesDropped atomic.Int64
	connsKilled   atomic.Int64

	repairsApplied atomic.Int64 // bulk replica streams installed here
	repairChunksRx atomic.Int64 // chunks received on installed streams
	repairsSent    atomic.Int64 // bulk streams fully acked as the sender

	closed atomic.Bool
	wg     sync.WaitGroup
}

// NodeID derives a node's ring identity from its bound listen address.
// Deterministic, so a restarted process resumes its ring position.
func NodeID(addr string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return h.Sum64()
}

// Start opens the data directory when one is configured, builds the
// corpus, binds the listener, joins the ring, and returns the running
// node.
func Start(cfg Config) (*Node, error) {
	cfg.fillDefaults()
	var (
		store     *wal.Store
		recovered bool
		replayed  int
		muts      []durableMut
	)
	if cfg.DataDir != "" {
		var err error
		if store, recovered, replayed, muts, err = openDurable(cfg.DataDir, cfg.Data); err != nil {
			return nil, err
		}
	}
	data, mem, err := bootCorpus(cfg.Data)
	if err == nil {
		err = decodeJournaled(data, muts)
	}
	if err != nil {
		_ = mem.release() // startup already failing; the build or decode error is the signal
		if store != nil {
			_ = store.Close() // likewise
		}
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		_ = mem.release() // startup already failing; the listen error is the signal
		if store != nil {
			_ = store.Close() // likewise
		}
		return nil, err
	}
	n := &Node{
		cfg:  cfg,
		addr: ln.Addr().String(),
		sig:  data.Sig(),
		// A restarted process has the same identity and restarts its
		// qid counter, so returns are routed by (epoch, qid): frames
		// queued for a dead incarnation cannot leak into this one.
		epoch:     uint64(time.Now().UnixNano()),
		data:      data,
		mem:       mem,
		recovered: recovered,
		replayed:  replayed,
		ln:        ln,
		members:   make(map[uint64]string),
		queries:   make(map[uint64]*originQuery),
		links:     make(map[string]*link),
		clients:   make(map[net.Conn]struct{}),
		hb:        make(map[uint64]*hbState),
		mine:      newDelta(),
		handing:   make(map[int32]bool),
		copies:    make(map[uint64]*replicaCopy),
		pushes:    make(map[uint64]*repPush),
		staging:   make(map[uint64]*repStage),
		pubs:      make(map[uint64]*pendingPub),
		store:     store,
	}
	n.id = NodeID(n.addr)
	n.rt = livert.New(livert.Config{Seed: cfg.Data.Seed ^ int64(n.id)})
	if err := n.rt.Do(func() {
		// Replay the journaled mutations in log order, so publish/delete
		// interleavings resolve as they were applied, before the first
		// view: whatever of them this node turns out not to own is handed
		// off from there.
		for _, m := range muts {
			var x *extra
			if !m.del {
				x = &extra{key: data.Part().Unring(m.key), point: m.point, val: m.val, obj: m.obj}
			}
			n.mine.apply(m.id, n.boot(m.id), x)
		}
		n.addMember(n.id, n.addr)
		n.gossip = runtime.NewTicker(n.rt,
			time.Duration(n.rt.Rand().Int63n(int64(cfg.GossipPeriod))),
			cfg.GossipPeriod, n.gossipTick)
		n.heartbeat = runtime.NewTicker(n.rt,
			time.Duration(n.rt.Rand().Int63n(int64(cfg.HeartbeatPeriod))),
			cfg.HeartbeatPeriod, n.heartbeatTick)
		n.antiEntropy = runtime.NewTicker(n.rt,
			time.Duration(n.rt.Rand().Int63n(int64(cfg.AntiEntropyPeriod))),
			cfg.AntiEntropyPeriod, n.antiEntropyTick)
	}); err != nil {
		_ = ln.Close() //lint:allow errdrop best-effort teardown of a listener the node never used
		if store != nil {
			_ = store.Close() // startup already failing; the executor error is the signal
		}
		_ = mem.release() // likewise
		return nil, err
	}
	n.wg.Add(1)
	go n.acceptLoop()
	for _, j := range cfg.Join {
		if j != "" && j != n.addr {
			// Queue an announce on the bootstrap link: the dial-on-
			// demand handshake exchanges full membership both ways.
			n.sendRaw(j, appendAnnounce(nil, &announceMsg{Members: n.snapshot()}))
		}
	}
	return n, nil
}

// ID returns the node's ring identity.
func (n *Node) ID() uint64 { return n.id }

// Recovered reports whether an earlier boot had initialised the node's
// data directory, so that this one replayed its journaled mutations
// (false without DataDir and on the boot that first uses a directory).
func (n *Node) Recovered() bool { return n.recovered }

// Addr returns the bound listen address.
func (n *Node) Addr() string { return n.addr }

// Close shuts the node down: listener, client connections, links, and
// the protocol executor; last, it unmaps the corpus' columns.
func (n *Node) Close() {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	_ = n.ln.Close() //lint:allow errdrop listener teardown at shutdown; nothing observes the error
	// Snapshot the client set under the lock, close outside it: a
	// session's own teardown path takes clientMu to deregister, and
	// Close on a TCP conn can wait on linger.
	n.clientMu.Lock()
	conns := make([]net.Conn, 0, len(n.clients))
	for c := range n.clients {
		conns = append(conns, c)
	}
	n.clients = nil
	n.clientMu.Unlock()
	for _, c := range conns {
		closeConn(c)
	}
	n.linkMu.Lock()
	links := n.links
	n.links = map[string]*link{}
	n.linkMu.Unlock()
	for _, l := range links {
		l.close()
	}
	_ = n.rt.Do(func() {
		if n.gossip != nil {
			n.gossip.Stop()
		}
		if n.heartbeat != nil {
			n.heartbeat.Stop()
		}
		if n.antiEntropy != nil {
			n.antiEntropy.Stop()
		}
		for _, p := range n.pushes {
			p.snd.Stop()
		}
		for rid, pp := range n.pubs {
			pp.timer.Stop()
			delete(n.pubs, rid)
			pp.done(ErrNodeClosed)
		}
		for qid, oq := range n.queries {
			oq.deadline.Stop()
			delete(n.queries, qid)
			oq.done(QueryOutcome{}, ErrNodeClosed)
		}
	})
	n.rt.Close()
	if n.store != nil {
		_ = n.store.Close() // shutdown teardown; the journal synced on every append interval
	}
	n.wg.Wait()
	// The executor has stopped and every client session has ended, and a
	// link's reader only decodes frames: nothing reads the columns now.
	if err := n.mem.release(); err != nil {
		n.logf("unmapping the corpus columns: %v", err)
	}
}

// ErrNodeClosed reports a query cut short by node shutdown.
var ErrNodeClosed = fmt.Errorf("netrt: node closed")

// logf emits one diagnostic line when the config asks for them.
func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// ---- linkHost implementation ----

func (n *Node) selfID() uint64 { return n.id }

func (n *Node) nextFrameID() uint64 { return n.frameID.Add(1) }

func (n *Node) linkFaults(peer uint64) *runtime.LinkFaults {
	return runtime.NewLinkFaults(n.cfg.Faults, peer)
}

func (n *Node) linkSeed(addr string) int64 {
	return n.cfg.Data.Seed ^ int64(NodeID(addr))
}

func (n *Node) countFault(kind string) {
	if kind == "drop" {
		n.framesDropped.Add(1)
	} else {
		n.connsKilled.Add(1)
	}
}

func (n *Node) maxQueue() int { return linkQueueBound }

// dialPeer dials a peer and completes the handshake; membership learned
// from the Welcome merges on the executor.
func (n *Node) dialPeer(addr string) (net.Conn, uint64, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, 0, err
	}
	w, err := dialHandshake(conn, n.addr, n.sig, n.snapshot())
	if err != nil {
		// Somebody answered and the handshake failed: say why on this
		// side too (the link only counts a redial).
		n.logf("link to %s: %v", addr, err)
		closeConn(conn)
		return nil, 0, err
	}
	n.rt.Schedule(0, func() {
		n.addMember(w.Self.ID, w.Self.Addr)
		n.mergeMembers(w.Members)
	})
	n.logf("link up to %s (node %016x, dialed)", addr, w.Self.ID)
	return conn, w.Self.ID, nil
}

// handleFrame routes one peer frame onto the executor, every kind the
// same way (deliver): the body is decoded right here, on the link's
// reader, and what the message means is scheduled. A hostile or
// truncated frame surfaces as a typed wire.FrameError and the reader
// drops the link before anything is scheduled, decoding stays off the
// one executor goroutine every query on the node serialises through, and
// the decoded structs own their memory, so the reader may reuse its buffer.
func (n *Node) handleFrame(peer uint64, kind byte, body []byte) error {
	switch kind {
	case kindQuery:
		return deliver(n, body, decodeQuery, func(n *Node, m *queryMsg) { n.process(m, true) })
	case kindResult:
		return deliver(n, body, decodeResult, func(n *Node, m *resultMsg) { n.onReturn(m.Epoch, m.QID, m.Credit, m.Entries, false) })
	case kindDrop:
		return deliver(n, body, decodeDrop, func(n *Node, m *dropMsg) { n.onReturn(m.Epoch, m.QID, m.Credit, nil, true) })
	case kindPing:
		return deliver(n, body, decodePing, func(n *Node, m *pingMsg) { n.onPing(*m) })
	case kindPong:
		return deliver(n, body, decodePing, func(n *Node, m *pingMsg) { n.onPong(*m) })
	case kindPublish:
		return deliver(n, body, decodePub, (*Node).onPublish)
	case kindPubAck:
		return deliver(n, body, decodePubAck, (*Node).onPubAck)
	case kindRepChunk:
		return deliver(n, body, decodeRepChunk, func(n *Node, m *repChunkMsg) { n.onRepChunk(peer, m) })
	case kindRepAck:
		return deliver(n, body, decodeRepAck, func(n *Node, m *repAckMsg) { n.onRepAck(peer, m) })
	case kindRepDigest:
		return deliver(n, body, decodeRepDigest, func(n *Node, m *repDigestMsg) { n.onRepDigest(peer, m) })
	case kindAnnounce:
		return deliver(n, body, decodeAnnounce, func(n *Node, m *announceMsg) { n.mergeMembers(m.Members) })
	}
	return nil
}

func deliver[M any](n *Node, body []byte, decode func([]byte) (M, error), handle func(*Node, *M)) error {
	m, err := decode(body)
	if err != nil {
		return err
	}
	n.rt.Schedule(0, func() { handle(n, &m) })
	return nil
}

// ---- membership (executor-owned) ----

// addMember records one member and recomputes ownership if the view
// changed.
//
//lint:context executor
func (n *Node) addMember(id uint64, addr string) {
	if addr == "" {
		return
	}
	if cur, ok := n.members[id]; ok && cur == addr {
		return
	}
	n.members[id] = addr
	n.rebuildView()
	n.logf("member %016x @ %s (now %d members)", id, addr, len(n.members))
}

// mergeMembers folds a received membership list into the view.
//
//lint:context executor
func (n *Node) mergeMembers(ms []Member) {
	changed := false
	for _, m := range ms {
		if m.Addr == "" {
			continue
		}
		if cur, ok := n.members[m.ID]; !ok || cur != m.Addr {
			n.members[m.ID] = m.Addr
			changed = true
		}
	}
	if changed {
		n.rebuildView()
		n.logf("membership merged to %d members", len(n.members))
	}
}

// rebuildView refreshes the sorted ring, the owned runs, the set of
// replica copies worth keeping and the handshake snapshot after any
// membership change, and hands off the delta items the change took away.
func (n *Node) rebuildView() {
	n.ring = n.ring[:0]
	for id := range n.members {
		n.ring = append(n.ring, id)
	}
	sort.Slice(n.ring, func(i, j int) bool { return n.ring[i] < n.ring[j] })
	// Ownership is the arc (predecessor, self] of the key-ordered
	// columns: four binary searches, not a walk of the corpus.
	me := sort.Search(len(n.ring), func(i int) bool { return n.ring[i] >= n.id })
	pred := n.ring[(me+len(n.ring)-1)%len(n.ring)]
	n.runs = n.data.Cols().arc(n.data.Part(), pred, n.id)
	n.dropForeignCopies()
	snap := make([]Member, len(n.ring))
	for i, id := range n.ring {
		snap[i] = Member{ID: id, Addr: n.members[id]}
	}
	n.memberSnap.Store(snap)
	n.handOff()
}

// ownedBoot counts the boot entries this node owns, tombstoned or not.
func (n *Node) ownedBoot() int {
	return n.runs[0].b - n.runs[0].a + n.runs[1].b - n.runs[1].a
}

// successor returns the member owning ring position key: the first
// member ID ≥ key, wrapping to the smallest.
func (n *Node) successor(key uint64) uint64 {
	i := sort.Search(len(n.ring), func(i int) bool { return n.ring[i] >= key })
	if i == len(n.ring) {
		i = 0
	}
	return n.ring[i]
}

// snapshot returns the current membership, safe from any goroutine.
func (n *Node) snapshot() []Member {
	if v := n.memberSnap.Load(); v != nil {
		return v.([]Member)
	}
	return []Member{{ID: n.id, Addr: n.addr}}
}

// gossipTick sends the full view to one random member — the
// anti-entropy path that heals views after restarts and lost
// announces. Executor-owned (the random draw uses the protocol
// source).
//
//lint:context executor
func (n *Node) gossipTick() {
	if len(n.ring) < 2 {
		return
	}
	peer := n.ring[n.rt.Rand().Intn(len(n.ring))]
	if peer == n.id {
		return
	}
	n.sendRaw(n.members[peer], appendAnnounce(nil, &announceMsg{Members: n.snapshot()}))
}

// ---- sending ----

// ensureLink returns the link for a peer address, creating it (and its
// writer goroutine) on first use.
func (n *Node) ensureLink(addr string) *link {
	n.linkMu.Lock() //lint:allow execblock bounded critical section: the link-table mutex; holders touch the map or take link.mu (acyclic, bounded)
	defer n.linkMu.Unlock()
	if l, ok := n.links[addr]; ok {
		return l
	}
	if n.closed.Load() {
		return nil
	}
	l := newLink(n, addr)
	n.links[addr] = l
	return l
}

// sendRaw queues one encoded frame payload on the peer's link: what the
// typed appenders built, or a replica stream's pre-encoded chunks. Never
// blocks; a full queue sheds the frame (the credit accounting turns
// that into an honest incomplete query).
func (n *Node) sendRaw(addr string, payload []byte) {
	if addr == "" || addr == n.addr {
		return
	}
	if l := n.ensureLink(addr); l != nil {
		l.enqueue(payload)
	}
}

// acceptLoop serves the listener: every accepted connection identifies
// itself with its first frame — a peer Hello or a client hello.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

// LinkStats aggregates the node's link-layer and repair counters.
type LinkStats struct {
	Links         int
	Queued        int
	Shed          int64
	Redials       int64
	Sent          int64
	FramesDropped int64
	ConnsKilled   int64

	// Repair counters (see replica.go).
	Repairs      int64 // bulk replica streams installed at this node
	RepairChunks int64 // chunks received on installed streams
	RepairsSent  int64 // bulk streams fully acked as the sender
}

// Stats snapshots the link layer. Safe from any goroutine.
func (n *Node) Stats() LinkStats {
	var s LinkStats
	n.linkMu.Lock()
	for _, l := range n.links {
		//lint:allow lockheld lock order linkMu → link.mu is acyclic, and stats' critical section is one len read
		q, shed, redials, sent := l.stats()
		s.Links++
		s.Queued += q
		s.Shed += shed
		s.Redials += redials
		s.Sent += sent
	}
	n.linkMu.Unlock()
	s.FramesDropped = n.framesDropped.Load()
	s.ConnsKilled = n.connsKilled.Load()
	s.Repairs = n.repairsApplied.Load()
	s.RepairChunks = n.repairChunksRx.Load()
	s.RepairsSent = n.repairsSent.Load()
	return s
}
