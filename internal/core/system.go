package core

import (
	"fmt"
	"sort"
	"time"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/lph"
	"landmarkdht/internal/netmodel"
	"landmarkdht/internal/runtime"
	"landmarkdht/internal/runtime/simrt"
	"landmarkdht/internal/sim"
)

// Config parameterizes a System.
type Config struct {
	// Chord is the overlay configuration.
	Chord chord.Config
	// Msg is the message-size model (§4.1).
	Msg MessageModel
	// EncodeWire runs query and result messages through the real
	// binary codec (internal/wire) instead of size accounting alone:
	// subquery cubes are quantized to the paper's 2-byte bounds in
	// transit (widened, so exactness of result sets is preserved) and
	// result distances are quantized against Index.MaxDist.
	EncodeWire bool
	// Retry configures reliable subquery/result delivery. The zero
	// value disables it, preserving the paper's fire-and-forget
	// behavior (lost subqueries surface as recall loss).
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

// RetryConfig tunes the reliable-delivery layer: every subquery and
// result message is acknowledged by its receiver; a sender that sees
// no ack within the timeout re-resolves the destination (failing over
// to the region's current successor — under ReplicateAll placement,
// the first live replica) and retransmits with exponential backoff.
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
		Msg:   DefaultMessageModel(),
	}
}

// System is a deployment of the index architecture: an overlay of
// index nodes hosting any number of index schemes. It runs over the
// runtime seams, driven by the simulator (NewSystem, or
// NewSystemRuntime over simrt), and, like the overlay, its protocol
// callbacks are single-threaded by contract.
type System struct {
	rt    runtime.Runtime
	net   *chord.Network
	cfg   Config
	nodes map[chord.ID]*IndexNode
	index map[string]*Index
	nextQ int
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
	scanBuf []Entry
	// refine is the batch refineLocal hands Index.Refine, reused for
	// every batch of every scan on the same single-threaded grounds.
	refine refineBatch
	// transfers accounts bulk region streams against the point-wise
	// republication they replaced (internal/core/transfer.go).
	transfers TransferStats
	// nextTransfer allocates stream ids; deterministic counter.
	nextTransfer uint64
	// rxApplied is the receiver-side dedup state: chunk sequence
	// numbers already applied, per in-flight transfer id.
	rxApplied map[uint64]map[uint32]bool
}

// IndexNode is the per-node application state: the index entries this
// node stores for each index scheme, behind the pluggable Store.
type IndexNode struct {
	sys       *System
	node      *chord.Node
	st        Store
	migrating bool
}

// NewSystem creates an empty system over a fresh overlay driven by a
// simulation engine — the historical constructor, equivalent to
// NewSystemRuntime over the simrt adapter.
func NewSystem(eng *sim.Engine, model netmodel.Model, cfg Config) *System {
	rt := simrt.New(eng)
	return NewSystemRuntime(rt, rt, model, cfg)
}

// NewSystemRuntime creates an empty system over explicit runtime
// seams.
func NewSystemRuntime(rt runtime.Runtime, tr runtime.Transport, model netmodel.Model, cfg Config) *System {
	if cfg.Msg == (MessageModel{}) {
		cfg.Msg = DefaultMessageModel()
	}
	cfg.Retry.fillDefaults()
	cfg.Hedge.fillDefaults()
	return &System{
		rt:         rt,
		net:        chord.NewNetworkRuntime(rt, tr, model, cfg.Chord),
		cfg:        cfg,
		nodes:      make(map[chord.ID]*IndexNode),
		index:      make(map[string]*Index),
		replicated: make(map[string]int),
		suspicion:  make(map[chord.ID]int),
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

// Runtime returns the runtime driving the system.
func (s *System) Runtime() runtime.Runtime { return s.rt }

// Network returns the underlying overlay.
func (s *System) Network() *chord.Network { return s.net }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

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

// BulkLoad places entries directly on their responsible nodes through
// the successor oracle — the fast path used to populate large
// experiments. It is equivalent to every publish having completed.
func (s *System) BulkLoad(indexName string, entries []Entry) error {
	ix, err := s.lookupIndex(indexName)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if len(e.Point) != ix.Part.K() {
			return fmt.Errorf("core: entry for %q has %d coordinates, want %d", indexName, len(e.Point), ix.Part.K())
		}
		key := ix.Part.Ring(ix.Part.Hash(e.Point))
		owner, err := s.net.SuccessorNode(key)
		if err != nil {
			return err
		}
		if err := s.nodes[owner.ID()].st.Put(indexName, key, e); err != nil {
			return err
		}
	}
	return nil
}

// Publish inserts one entry through the overlay: a Chord lookup from
// the source node resolves the responsible node, then the entry
// travels there. done (optional) receives the owner and lookup hop
// count.
func (s *System) Publish(indexName string, srcID chord.ID, e Entry, done func(owner chord.ID, hops int)) error {
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
	lookupBytes := 40
	src.node.FindSuccessor(key, lookupBytes, func(owner chord.ID, hops int) {
		entryBytes := s.cfg.Msg.TransferBytes(1)
		if s.cfg.Retry.Enabled() {
			s.publishReliably(src, owner, key, indexName, e, entryBytes, hops, done)
			return
		}
		s.net.SendOrFail(src.node, owner, chord.KindLookup, entryBytes, func(dst *chord.Node) {
			s.storePublished(dst.ID(), indexName, key, e, hops+1, done)
		}, func() {
			// Owner vanished: re-resolve through the oracle so the
			// entry is not lost (models retry).
			cur, err := s.net.SuccessorNode(key)
			if err != nil {
				return
			}
			s.storePublished(cur.ID(), indexName, key, e, hops+1, done)
		})
	})
	return nil
}

// storePublished lands a published entry on its owner's store and
// reports the owner and hop count to done (optional).
func (s *System) storePublished(owner chord.ID, indexName string, key lph.Key, e Entry, hops int, done func(chord.ID, int)) {
	s.noteStoreErr(s.nodes[owner].st.Put(indexName, key, e))
	if done != nil {
		done(owner, hops)
	}
}

// publishReliably delivers a published entry with the ack/timeout/retry
// state machine: the receiver acknowledges storing the entry; a sender
// seeing no ack within the timeout re-resolves the key's current owner
// and retransmits with exponential backoff, up to MaxRetries.
func (s *System) publishReliably(src *IndexNode, owner chord.ID, key lph.Key, indexName string, e Entry, entryBytes, hops int, done func(chord.ID, int)) {
	delivered := false
	var send func(dest chord.ID, attempt int)
	send = func(dest chord.ID, attempt int) {
		if attempt > 0 {
			s.RetriesIssued++
		}
		timer := s.rt.AfterFunc(s.retryTimeout(attempt), func() {
			if delivered || !src.node.Alive() {
				return
			}
			if attempt >= s.cfg.Retry.MaxRetries {
				return // entry lost: retries exhausted
			}
			cur, err := s.net.SuccessorID(key)
			if err != nil {
				return
			}
			send(cur, attempt+1)
		})
		s.net.SendOrFail(src.node, dest, chord.KindLookup, entryBytes, func(dst *chord.Node) {
			s.net.SendOrFail(dst, src.node.ID(), chord.KindAck, retryAckBytes, func(*chord.Node) {
				timer.Stop()
			}, nil)
			if delivered {
				return // duplicate from a premature timeout
			}
			delivered = true
			if attempt > 0 {
				s.RecoveredSubqueries++
			}
			s.storePublished(dst.ID(), indexName, key, e, hops+1, done)
		}, nil)
	}
	send(owner, 0)
}

// Store returns the node's storage backend.
func (in *IndexNode) Store() Store { return in.st }

// Snapshot copies the node's entries per index scheme (used by churn
// injection to model soft-state republication of a crashed node's
// entries).
func (in *IndexNode) Snapshot() map[string][]Entry {
	out := make(map[string][]Entry)
	for _, name := range in.st.Indexes() {
		_, entries := in.st.RegionSnapshot(name)
		if len(entries) == 0 {
			continue
		}
		out[name] = entries
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

// LoadsFor returns per-node loads for one scheme, descending.
func (s *System) LoadsFor(indexName string) []int {
	out := make([]int, 0, len(s.nodes))
	for _, in := range s.Nodes() {
		out = append(out, in.LoadFor(indexName))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// TotalEntries sums all stored entries (conservation check).
func (s *System) TotalEntries() int {
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
