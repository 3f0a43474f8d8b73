package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/lph"
	"landmarkdht/internal/netmodel"
	"landmarkdht/internal/runtime"
)

// Config parameterizes a System.
type Config struct {
	// Chord is the overlay configuration.
	Chord chord.Config
	// EncodeWire runs query and result messages through the real
	// binary codec (internal/wire) instead of size accounting alone:
	// subquery cubes are quantized to the paper's 2-byte bounds in
	// transit (widened, so exactness of result sets is preserved) and
	// result distances are quantized against Index.MaxDist.
	EncodeWire bool
	// Retry configures reliable delivery of every query message (of
	// both routers: RangeQuery and NaiveRangeQuery), result message and
	// published entry, over the same handler tables as fire-and-forget.
	// The zero value disables it, preserving the paper's fire-and-forget
	// behavior: lost subqueries surface as recall loss, and a lost entry
	// or publish lookup is placed at its key's current owner. With it a
	// naive piece whose lookup is lost is retransmitted to its owner, and
	// a publish whose every attempt is lost ends in ErrNotPlaced once its
	// retries are spent.
	Retry RetryConfig
	// Deadline, when positive, bounds every query's total time
	// (QueryOpts.Deadline overrides it per query). On expiry the query
	// finishes with whatever results arrived, marked Complete=false,
	// and the still-outstanding regions become QueryResult.Uncovered.
	// Zero preserves the run-to-quiescence behavior.
	Deadline time.Duration
	// Hedge configures hedged retransmission of slow subqueries. The
	// zero value disables it.
	Hedge HedgeConfig
	// MaxActiveQueries, when positive, bounds the queries concurrently
	// active in the system. A query arriving at the cap is rejected at
	// admission: it completes immediately with an honest incomplete
	// result (its whole region Uncovered, nothing silently lost) and is
	// counted in System.AdmissionRejected. Zero admits everything.
	MaxActiveQueries int
	// Store builds each node's storage backend when it joins. Nil uses
	// the in-memory NewMemStore (the paper's assumption: state is
	// re-derivable). A durable deployment installs a walstore factory
	// here so every node's region survives a restart.
	Store StoreFactory
}

// RetryConfig tunes the reliable-delivery layer: every query, result
// and entry message is acknowledged by its receiver; a sender that sees
// no ack within the timeout re-resolves the destination (failing over
// to the region's current successor — under ReplicateAll placement,
// the first live replica) and retransmits with exponential backoff. A
// lost lookup (a naive piece's, a publish's) goes straight to its next
// attempt.
type RetryConfig struct {
	// MaxRetries bounds retransmissions per message; 0 disables the
	// reliability layer entirely.
	MaxRetries int
	// Timeout is the initial retransmission timeout (default 1s,
	// several times the simulated mean RTT). A timeout shorter than
	// the path RTT only costs duplicate messages: receivers
	// deduplicate delivered subqueries.
	Timeout time.Duration
}

const (
	// retryBackoff multiplies the retransmission timeout after each
	// attempt.
	retryBackoff = 2
	// retryAckBytes is the size of an acknowledgement message: a bare
	// packet header in the paper's size model.
	retryAckBytes = 20
)

// Enabled reports whether the reliability layer is active.
func (rc RetryConfig) Enabled() bool { return rc.MaxRetries > 0 }

// HedgeConfig tunes hedged subquery retransmission: when a subquery
// is still unanswered Delay after it was shipped, a duplicate is sent
// to the first replica of its region's current owner (or to the owner
// itself when the index is not replicated — a replica-less alternate
// could answer from an empty store and silently shrink the result).
// The querier settles each outstanding region exactly once, so hedged
// duplicates can only add speed, never duplicate or corrupt results.
//
// Hedging also feeds a per-node suspicion counter: every hedge fire
// and every acknowledgement timeout against a node increments it, and
// once it crosses suspicionThreshold the router prefers the node's
// successor as the next hop. Successful deliveries decrement the
// counter, and so does every avoidance decision, so a recovering node
// is probed again after at most suspicionThreshold redirections —
// suspicion is a bias, never a permanent blacklist.
type HedgeConfig struct {
	// Delay is how long a subquery may stay outstanding before it is
	// hedged; 0 disables hedging. A good value is a high quantile of
	// the subquery round-trip distribution (under the paper's 180 ms
	// mean RTT, around 1–2 s).
	Delay time.Duration
	// MaxPerQuery bounds hedged messages per query (default 16).
	MaxPerQuery int
}

// suspicionThreshold is the consecutive-failure count after which the
// router avoids a node.
const suspicionThreshold = 3

// Enabled reports whether hedging is active.
func (hc HedgeConfig) Enabled() bool { return hc.Delay > 0 }

func (hc *HedgeConfig) fillDefaults() {
	if !hc.Enabled() {
		return
	}
	if hc.MaxPerQuery <= 0 {
		hc.MaxPerQuery = 16
	}
}

func (rc *RetryConfig) fillDefaults() {
	if !rc.Enabled() {
		return
	}
	if rc.Timeout <= 0 {
		rc.Timeout = time.Second
	}
}

// DefaultConfig returns the paper's simulation parameters.
func DefaultConfig() Config {
	return Config{
		Chord: chord.DefaultConfig(),
	}
}

// System is a deployment of the index architecture: an overlay of
// index nodes hosting any number of index schemes. It runs on a
// runtime.Runtime, the simulator's (simrt), and, like the overlay, its
// protocol callbacks are single-threaded by contract.
type System struct {
	rt    runtime.Runtime
	net   *chord.Network
	cfg   Config
	nodes map[chord.ID]*IndexNode
	index map[string]*Index
	lb    *lbController
	// replicated maps index names to their ReplicateAll replica counts;
	// RepairReplicas re-establishes these placements after membership
	// changes.
	replicated map[string]int
	// DroppedSubqueries counts subqueries lost to in-flight node
	// departures, injected message loss, or exhausted retries (visible
	// recall loss under churn).
	DroppedSubqueries int
	// RetriesIssued counts retransmitted messages (query or result)
	// sent by the reliability layer.
	RetriesIssued int
	// RecoveredSubqueries counts subqueries and result messages whose
	// delivery succeeded on a retransmission — losses that would have
	// been recall loss without the reliability layer.
	RecoveredSubqueries int
	// HedgesIssued counts hedged duplicate subqueries shipped by the
	// resilience layer (Config.Hedge).
	HedgesIssued int
	// AdmissionRejected counts queries refused by the admission gate
	// (Config.MaxActiveQueries); every rejection produced an honest
	// incomplete result.
	AdmissionRejected int
	// StaleHandlers counts handlers that found their query's arena
	// recycled under them, and holds let go twice (arena.go): a
	// miscount of what can reach a query. It stays 0.
	StaleHandlers int
	// StoreErrors counts storage-backend failures (a durable store's
	// journal write or close failing). The in-memory state stays
	// coherent when this is non-zero, but durability of the counted
	// mutations is not guaranteed.
	StoreErrors int
	// active is the number of admitted, unfinished queries — the
	// admission gate's saturation measure.
	active int
	// suspicion counts consecutive delivery failures per node; see
	// HedgeConfig. Only written when hedging is enabled.
	suspicion map[chord.ID]int
	// scanBuf is the reusable candidate buffer for local store scans
	// (safe because a System is single-threaded and each scan's result
	// is consumed before the next scan runs; DESIGN.md §9).
	scanBuf []int32
	// refine is the batch refineLocal hands Index.Refine, reused for
	// every batch of every scan on the same single-threaded grounds.
	refine refineBatch
	// idle is the free list of query arenas, arenas how many were made,
	// and timers the pool of query timers (arena.go).
	idle   []*activeQuery
	arenas int
	timers []*timer
	// handlers are what a range query's messages run (arena.go).
	handlers messageHandlers
	// transfers accounts bulk region streams against the point-wise
	// republication they replaced (internal/core/transfer.go).
	transfers TransferStats
	// nextTransfer allocates stream ids; deterministic counter.
	nextTransfer uint64
}

// IndexNode is the per-node application state: the index entries this
// node stores for each index scheme, behind the pluggable Store.
type IndexNode struct {
	sys       *System
	node      *chord.Node
	st        Store
	migrating bool
}

// NewSystem creates an empty system over a fresh overlay driven by rt
// (simrt.New over a sim.Engine).
func NewSystem(rt runtime.Runtime, model netmodel.Model, cfg Config) *System {
	cfg.Retry.fillDefaults()
	cfg.Hedge.fillDefaults()
	return &System{
		rt:         rt,
		net:        chord.NewNetwork(rt, model, cfg.Chord),
		cfg:        cfg,
		nodes:      make(map[chord.ID]*IndexNode),
		index:      make(map[string]*Index),
		replicated: make(map[string]int),
		suspicion:  make(map[chord.ID]int),
		handlers:   newMessageHandlers(),
	}
}

// noteStoreErr counts a storage-backend failure (see StoreErrors).
func (s *System) noteStoreErr(err error) {
	if err != nil {
		s.StoreErrors++
	}
}

// suspect records a delivery failure against a node (hedge fire or
// acknowledgement timeout). No-op unless hedging is enabled: suspicion
// only exists to steer the hedge policy's routing bias.
func (s *System) suspect(id chord.ID) {
	if !s.cfg.Hedge.Enabled() {
		return
	}
	s.suspicion[id]++
}

// unsuspect decays a node's suspicion after a successful delivery.
func (s *System) unsuspect(id chord.ID) {
	if len(s.suspicion) == 0 {
		return
	}
	if c, ok := s.suspicion[id]; ok {
		if c <= 1 {
			delete(s.suspicion, id)
		} else {
			s.suspicion[id] = c - 1
		}
	}
}

// Network returns the underlying overlay.
func (s *System) Network() *chord.Network { return s.net }

// AddNode joins a node with the given ring identifier and latency-
// model host. The node's storage backend comes from Config.Store
// (in-memory by default); a durable factory may recover a previous
// incarnation's region from disk here.
func (s *System) AddNode(id chord.ID, host int) (*IndexNode, error) {
	st, err := s.newStore(id)
	if err != nil {
		return nil, err
	}
	nd, err := s.net.AddNode(id, host)
	if err != nil {
		s.noteStoreErr(st.Close())
		return nil, err
	}
	in := &IndexNode{sys: s, node: nd, st: st}
	s.nodes[id] = in
	return in, nil
}

// Populate adds n nodes with distinct ring identifiers drawn from rng,
// node i on latency-model host i, and stabilizes the ring. It returns
// the identifiers in the order they were drawn.
func (s *System) Populate(n int, rng *rand.Rand) ([]chord.ID, error) {
	ids := make([]chord.ID, 0, n)
	used := make(map[chord.ID]bool, n)
	for i := 0; i < n; i++ {
		id := chord.ID(rng.Uint64())
		for used[id] {
			id = chord.ID(rng.Uint64())
		}
		used[id] = true
		if _, err := s.AddNode(id, i); err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	s.Stabilize()
	return ids, nil
}

// newStore builds a node's storage backend from the configured factory.
func (s *System) newStore(id chord.ID) (Store, error) {
	if s.cfg.Store == nil {
		return NewMemStore(), nil
	}
	return s.cfg.Store(id)
}

// Stabilize installs oracle-stabilized routing state on all nodes (the
// measured steady state of the paper's experiments).
func (s *System) Stabilize() { s.net.BuildAllTables() }

// Node returns the index node with the given identifier, or nil.
func (s *System) Node(id chord.ID) *IndexNode { return s.nodes[id] }

// Nodes returns all index nodes in ring order.
func (s *System) Nodes() []*IndexNode {
	out := make([]*IndexNode, 0, len(s.nodes))
	for _, nd := range s.net.Nodes() {
		out = append(out, s.nodes[nd.ID()])
	}
	return out
}

// NodeAt returns the identifier of Nodes()[i] without building the
// list: the i-th live node in ring order.
func (s *System) NodeAt(i int) chord.ID { return s.net.At(i) }

// DeployIndex registers an index scheme on the platform. Multiple
// schemes can coexist; each is rotated by its partitioner's offset.
// The system keeps a copy of ix, whose Refine is a loop over Dist when
// ix has none.
func (s *System) DeployIndex(ix *Index) error {
	if err := ix.validate(); err != nil {
		return err
	}
	if _, dup := s.index[ix.Name]; dup {
		return fmt.Errorf("core: index %q already deployed", ix.Name)
	}
	own := *ix
	if own.Refine == nil {
		own.Refine = distRefiner(own.Dist)
	}
	s.index[ix.Name] = &own
	return nil
}

// RemoveIndex undeploys a scheme and drops all of its entries from
// every node. Used by dynamic landmark refresh (§6 future work #3):
// the caller re-deploys the scheme with a new landmark set and
// re-publishes the re-embedded entries.
func (s *System) RemoveIndex(name string) error {
	if _, ok := s.index[name]; !ok {
		return fmt.Errorf("core: unknown index %q", name)
	}
	delete(s.index, name)
	for _, in := range s.nodes {
		s.noteStoreErr(in.st.DropIndex(name))
	}
	return nil
}

// IndexNames returns the deployed schemes.
func (s *System) IndexNames() []string {
	out := make([]string, 0, len(s.index))
	for name := range s.index {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lookupIndex returns the deployed index by name.
func (s *System) lookupIndex(name string) (*Index, error) {
	ix, ok := s.index[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown index %q", name)
	}
	return ix, nil
}

// BulkLoadRows bulk-loads object i at point rows[i] — the rows an
// embedding's MapBatch writes into one arena.
func (s *System) BulkLoadRows(indexName string, rows [][]float64) error {
	entries := make([]Entry, len(rows))
	for i, p := range rows {
		entries[i] = Entry{Obj: ObjectID(i), Point: p}
	}
	return s.BulkLoad(indexName, entries)
}

// BulkLoad places entries directly on their responsible nodes through
// the successor oracle — the fast path used to populate large
// experiments. It is equivalent to every publish having completed: each
// owner stores its entries in the order they are given, in one PutBatch.
// An entry of the wrong dimensionality fails the load before anything
// is stored.
func (s *System) BulkLoad(indexName string, entries []Entry) error {
	ix, err := s.lookupIndex(indexName)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return nil
	}
	keys := make([]lph.Key, len(entries))
	for i, e := range entries {
		if len(e.Point) != ix.Part.K() {
			return fmt.Errorf("core: entry for %q has %d coordinates, want %d", indexName, len(e.Point), ix.Part.K())
		}
		keys[i] = ix.Part.Ring(ix.Part.Hash(e.Point))
	}
	n := s.net.Size()
	if n == 0 {
		return fmt.Errorf("core: bulk load of %q into an empty ring", indexName)
	}
	// A stable counting sort by owner: the entries of the owner at ring
	// index i are batch[at[i]:at[i+1]], in the order they were given.
	owner := make([]int32, len(entries))
	at := make([]int, n+1)
	for i, key := range keys {
		o := s.net.SuccessorIndex(key)
		owner[i] = int32(o)
		at[o+1]++
	}
	for i := 1; i <= n; i++ {
		at[i] += at[i-1]
	}
	next := slices.Clone(at[:n])
	batchKeys, batch := make([]lph.Key, len(entries)), make([]Entry, len(entries))
	for i, o := range owner {
		batchKeys[next[o]], batch[next[o]] = keys[i], entries[i]
		next[o]++
	}
	for i := range n {
		if at[i] == at[i+1] {
			continue
		}
		if err := s.nodes[s.net.At(i)].st.PutBatch(indexName, batchKeys[at[i]:at[i+1]], batch[at[i]:at[i+1]]); err != nil {
			return err
		}
	}
	return nil
}

// Publish inserts one entry through the overlay: a Chord lookup from
// the source node resolves the responsible node, then the entry
// travels there. done (optional) hears of every publish's end once:
// the owner that stored the entry and the hop count, or, under
// Config.Retry when every attempt is lost or the source dies,
// ErrNotPlaced.
func (s *System) Publish(indexName string, srcID chord.ID, e Entry, done func(owner chord.ID, hops int, err error)) error {
	ix, err := s.lookupIndex(indexName)
	if err != nil {
		return err
	}
	src, ok := s.nodes[srcID]
	if !ok {
		return fmt.Errorf("core: unknown source node %#x", srcID)
	}
	if len(e.Point) != ix.Part.K() {
		return fmt.Errorf("core: entry has %d coordinates, want %d", len(e.Point), ix.Part.K())
	}
	key := ix.Part.Ring(ix.Part.Hash(e.Point))
	t := &publishTry{p: &publish{src: src, index: indexName, key: key, e: e, done: done}}
	src.node.FindSuccessor(key, publishLookupBytes, &s.handlers.publishLookup, t)
	return nil
}

// ErrNotPlaced is a publish's end when its entry reached no owner.
var ErrNotPlaced = errors.New("core: entry not placed")

// publishLookupBytes is the size of a publish's lookup message.
const publishLookupBytes = 40

// publish is one entry on its way to its owner. ended is set when done
// has heard of it, placed or not.
type publish struct {
	src   *IndexNode
	index string
	key   lph.Key
	e     Entry
	hops  int // the lookup's
	done  func(owner chord.ID, hops int, err error)
	ended bool
}

// publishTry is one attempt of a publish: the record of its entry
// message, of that message's acknowledgement (Config.Retry) and of its
// retry timer, and, for attempt 0, of the lookup before them.
type publishTry struct {
	p       *publish
	attempt int
}

// foundOwner sends a publish's entry to the owner its lookup found.
func foundOwner(owner chord.ID, hops int, arg any) {
	t := arg.(*publishTry)
	t.p.hops = hops
	t.p.src.sys.sendPublish(t, owner)
}

// lostPublishLookup is the loss of a publish's lookup, which takes the
// path of a lost entry message: lostPublish fire-and-forget, and under
// Config.Retry the next attempt at once.
func lostPublishLookup(arg any) {
	t := arg.(*publishTry)
	if s := t.p.src.sys; s.cfg.Retry.Enabled() {
		s.publishTimeout(t)
		return
	}
	lostPublish(t)
}

// sendPublish sends one attempt of a published entry. Under
// Config.Retry the receiver acknowledges it, and a sender seeing no ack
// within the timeout re-resolves the key's current owner and
// retransmits with exponential backoff, up to MaxRetries.
func (s *System) sendPublish(t *publishTry, dest chord.ID) {
	if t.attempt > 0 {
		s.RetriesIssued++
	}
	if s.cfg.Retry.Enabled() {
		s.rt.ScheduleArg(s.retryTimeout(t.attempt), runPublishTimer, t)
	}
	s.net.SendRecord(t.p.src.node, dest, chord.KindLookup, TransferEntryBytes, &s.handlers.publish, t)
}

// recvPublish stores the first attempt to arrive. Under Config.Retry it
// acknowledges every attempt (duplicates from a premature timeout too).
func recvPublish(dst *chord.Node, arg any) {
	t := arg.(*publishTry)
	p := t.p
	s := p.src.sys
	if s.cfg.Retry.Enabled() {
		s.net.SendRecord(dst, p.src.node.ID(), chord.KindAck, retryAckBytes, &s.handlers.publishAck, t)
	}
	if p.ended {
		return
	}
	if t.attempt > 0 {
		s.RecoveredSubqueries++
	}
	s.storePublished(dst.ID(), p)
}

// lostPublish is an entry message's loss. Fire-and-forget, it
// re-resolves the owner of the entry through the oracle, so the entry
// is not lost (models retry); under Config.Retry the attempt's timer
// covers it.
func lostPublish(arg any) {
	p := arg.(*publishTry).p
	s := p.src.sys
	if s.cfg.Retry.Enabled() {
		return
	}
	cur, err := s.net.SuccessorNode(p.key)
	if err != nil {
		s.endPublish(p, 0, err)
		return
	}
	s.storePublished(cur.ID(), p)
}

// recvPublishAck needs to do nothing: the attempt it answers found the
// entry stored, so the attempt's timer finds the publish ended.
func recvPublishAck(*chord.Node, any) {}

// runPublishTimer is a publish attempt's retry timer.
func runPublishTimer(arg any) {
	t := arg.(*publishTry)
	t.p.src.sys.publishTimeout(t)
}

// publishTimeout runs when an attempt went unacknowledged, or the
// lookup was lost: unless an attempt arrived, the entry is sent again
// to the key's current owner, or, once retries are exhausted or the
// sender died, the publish ends unplaced.
func (s *System) publishTimeout(t *publishTry) {
	p := t.p
	switch {
	case p.ended:
	case t.attempt >= s.cfg.Retry.MaxRetries || !p.src.node.Alive():
		s.endPublish(p, 0, ErrNotPlaced)
	default:
		cur, err := s.net.SuccessorID(p.key)
		if err != nil {
			s.endPublish(p, 0, err)
			return
		}
		s.sendPublish(&publishTry{p: p, attempt: t.attempt + 1}, cur)
	}
}

// storePublished lands a published entry on its owner's store and ends
// the publish.
func (s *System) storePublished(owner chord.ID, p *publish) {
	s.noteStoreErr(s.nodes[owner].st.Put(p.index, p.key, p.e))
	s.endPublish(p, owner, nil)
}

// endPublish reports a publish's end to done (optional), once.
func (s *System) endPublish(p *publish, owner chord.ID, err error) {
	p.ended = true
	if p.done != nil {
		p.done(owner, p.hops+1, err)
	}
}

// IndexEntries is a copy of one index scheme's entries on a node.
type IndexEntries struct {
	Index   string
	Entries []Entry
}

// Snapshot copies the node's entries per index scheme, in Indexes()
// order and skipping empty ones (used by churn injection to model
// soft-state republication of a crashed node's entries).
func (in *IndexNode) Snapshot() []IndexEntries {
	var out []IndexEntries
	for _, name := range in.st.Indexes() {
		in.st.View(name, func(_ []lph.Key, entries []Entry) {
			if len(entries) > 0 {
				out = append(out, IndexEntries{name, slices.Clone(entries)})
			}
		})
	}
	return out
}

// ForgetNode drops the application state of a node that crashed at the
// overlay layer (chord.Network.CrashNode). Its entries are gone until
// republished — unless its store is durable, in which case a factory
// re-adding the same ID recovers them from disk. The store is closed
// to release backend resources; whether the journaled state survives
// is governed by the fsync policy, not by this close (real SIGKILL
// crash recovery is exercised by the netrt deployment).
func (s *System) ForgetNode(id chord.ID) {
	if in, ok := s.nodes[id]; ok {
		s.noteStoreErr(in.st.Close())
	}
	delete(s.nodes, id)
}

// CloseStores closes every live node's store in ring (sorted-id) order,
// counting failures in StoreErrors; a durable store syncs and closes its
// journal. The system must not store anything afterwards.
func (s *System) CloseStores() {
	for _, in := range s.Nodes() {
		s.noteStoreErr(in.st.Close())
	}
}

// CrashNode fails a node abruptly: the overlay node crashes (in-flight
// messages from it die with its process), its application state is
// dropped, routing tables around the gap are repaired, and registered
// replicated indexes are re-established on the new placement.
func (s *System) CrashNode(id chord.ID) error {
	if _, ok := s.nodes[id]; !ok {
		return fmt.Errorf("core: crash of unknown node %#x", id)
	}
	if err := s.net.CrashNode(id); err != nil {
		return err
	}
	s.ForgetNode(id)
	s.net.FixAround(id)
	s.RepairReplicas()
	return nil
}

// JoinNode adds a node mid-run: it joins the overlay, routing tables
// around it are refreshed, and replicated indexes are repaired so the
// newcomer takes over the primary/replica copies for its arc.
func (s *System) JoinNode(id chord.ID, host int) (*IndexNode, error) {
	in, err := s.AddNode(id, host)
	if err != nil {
		return nil, err
	}
	s.net.FixAround(id)
	s.RepairReplicas()
	return in, nil
}

// retryTimeout returns the retransmission timeout for the given attempt
// (exponential backoff from the configured base).
func (s *System) retryTimeout(attempt int) time.Duration {
	d := float64(s.cfg.Retry.Timeout)
	for i := 0; i < attempt; i++ {
		d *= retryBackoff
	}
	return time.Duration(d)
}

// Load returns the node's total entry count across schemes — the
// paper's load measure.
func (in *IndexNode) Load() int { return in.st.TotalSize() }

// LoadFor returns the node's entry count for one scheme.
func (in *IndexNode) LoadFor(indexName string) int { return in.st.Size(indexName) }

// ID returns the node's ring identifier.
func (in *IndexNode) ID() chord.ID { return in.node.ID() }

// ChordNode returns the underlying overlay node.
func (in *IndexNode) ChordNode() *chord.Node { return in.node }

// Loads returns every node's load in descending order — the paper's
// Figure 4 / Figure 6 presentation ("nodes are sorted in the
// decreasing order of the load").
func (s *System) Loads() []int {
	out := make([]int, 0, len(s.nodes))
	for _, in := range s.Nodes() {
		out = append(out, in.Load())
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// TotalEntries sums all stored entries (conservation check).
func (s *System) TotalEntries() int { //lint:allow deadexport the conservation oracle of core's and harness's migration, churn and replication tests
	total := 0
	for _, in := range s.nodes {
		total += in.Load()
	}
	return total
}

// RecoverySummary aggregates recovery statistics over every node whose
// store is durable (implements Recoverable), returning the durable
// node count and the summed stats. SnapshotStamp is the newest stamp
// across nodes.
func (s *System) RecoverySummary() (durable int, agg RecoveryStats) {
	for _, in := range s.nodes {
		r, ok := in.st.(Recoverable)
		if !ok {
			continue
		}
		durable++
		rs := r.Recovery()
		agg.RecordsReplayed += rs.RecordsReplayed
		agg.SnapshotRecords += rs.SnapshotRecords
		agg.Compactions += rs.Compactions
		agg.LogBytes += rs.LogBytes
		if rs.SnapshotStamp > agg.SnapshotStamp {
			agg.SnapshotStamp = rs.SnapshotStamp
		}
	}
	return durable, agg
}

// reinsert routes a batch of migrated entries to their current oracle
// owners (destination nodes may themselves have moved while the batch
// was in flight).
func (s *System) reinsert(indexName string, keys []lph.Key, entries []Entry) {
	for i, key := range keys {
		owner, err := s.net.SuccessorNode(key)
		if err != nil {
			continue
		}
		s.noteStoreErr(s.nodes[owner.ID()].st.Put(indexName, key, entries[i]))
	}
}
