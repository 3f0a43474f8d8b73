package chord

import (
	"fmt"
	"sort"
	"time"

	"landmarkdht/internal/netmodel"
	"landmarkdht/internal/runtime"
)

// MsgKind classifies simulated messages for cost accounting. The paper
// reports query-delivery and result-delivery bandwidth separately and
// notes that DHT maintenance can be piggybacked onto query traffic.
type MsgKind int

const (
	// KindMaintenance covers overlay upkeep charged without a message,
	// such as the load balancer's piggybacked probes.
	KindMaintenance MsgKind = iota
	// KindLookup covers find-successor traffic (index publication).
	KindLookup
	// KindQuery covers range-query delivery messages.
	KindQuery
	// KindResult covers result-delivery messages.
	KindResult
	// KindTransfer covers load-migration index transfers.
	KindTransfer
	// KindAck covers delivery acknowledgements of the reliable
	// subquery-delivery layer.
	KindAck
	numKinds
)

// String names the message kind.
func (k MsgKind) String() string {
	switch k {
	case KindMaintenance:
		return "maintenance"
	case KindLookup:
		return "lookup"
	case KindQuery:
		return "query"
	case KindResult:
		return "result"
	case KindTransfer:
		return "transfer"
	case KindAck:
		return "ack"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Traffic accumulates per-kind message and byte counts, and the
// messages the fault policy dropped (including partition casualties)
// or delivered twice.
type Traffic struct {
	Msgs       [numKinds]int64
	Bytes      [numKinds]int64
	Dropped    [numKinds]int64
	Duplicated int64
}

// Add records one message of the given kind and size.
func (t *Traffic) Add(kind MsgKind, bytes int) {
	t.Msgs[kind]++
	t.Bytes[kind] += int64(bytes)
}

// Total returns the sum over all kinds.
func (t *Traffic) Total() (msgs, bytes int64) {
	for k := 0; k < int(numKinds); k++ {
		msgs += t.Msgs[k]
		bytes += t.Bytes[k]
	}
	return
}

// Config parameterizes the overlay. The defaults match the paper's
// simulation setup: base-2 fingers, 16 successors, PNS enabled.
type Config struct {
	// PNS enables proximity neighbor selection for fingers.
	PNS bool
	// Faults, when non-nil, injects deterministic message-level
	// failures (loss, duplication, latency jitter/spikes, partitions)
	// into every send; see faults. The network copies the policy when
	// it is built. Decisions are drawn from the runtime's random
	// source, so trials stay reproducible for a given seed.
	Faults *runtime.FaultPolicy
}

// Successors is the successor-list length, the paper's 16.
const Successors = 16

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{PNS: true}
}

// Network is the overlay: the set of live nodes, the latency model,
// and traffic accounting. It runs on a runtime.Runtime — time, the
// seeded random source, and ScheduleArg, which carries every message —
// and its protocol callbacks are single-threaded by contract: the
// simulated runtime drives them from one engine. A Network is therefore
// never touched from more than one execution context at a time.
type Network struct {
	rt      runtime.Runtime
	model   netmodel.Model
	cfg     Config
	nodes   map[ID]*Node
	ring    []ID // sorted live IDs (oracle view)
	traffic Traffic
	faults  *faults // nil: no fault policy
	// pool recycles inflight records so the per-message delivery path
	// allocates nothing in steady state (DESIGN.md §9).
	pool []*inflight
	// lookups recycles FindSuccessor's lookup records, and hop is what
	// one of them runs as a message (node.go).
	lookups []*lookup
	hop     Handlers
}

// NewNetwork creates an empty overlay driven by rt (simrt.New over a
// sim.Engine).
func NewNetwork(rt runtime.Runtime, model netmodel.Model, cfg Config) *Network {
	return &Network{
		rt: rt, model: model, cfg: cfg, faults: newFaults(cfg.Faults), nodes: make(map[ID]*Node),
		hop: Handlers{Recv: recvHop, Lost: lostHop},
	}
}

// Runtime returns the runtime driving the overlay.
func (n *Network) Runtime() runtime.Runtime { return n.rt }

// Config returns the overlay configuration.
func (n *Network) Config() Config { return n.cfg }

// Traffic returns a snapshot of the accumulated traffic counters.
func (n *Network) Traffic() Traffic { return n.traffic }

// RecordTraffic accounts application-level traffic that does not go
// through Send (e.g. piggybacked load probes, bulk transfers).
func (n *Network) RecordTraffic(kind MsgKind, bytes int) { n.traffic.Add(kind, bytes) }

// Size returns the number of live nodes.
func (n *Network) Size() int { return len(n.ring) }

// Nodes returns the live nodes in ring order.
func (n *Network) Nodes() []*Node {
	out := make([]*Node, len(n.ring))
	for i, id := range n.ring {
		out[i] = n.nodes[id]
	}
	return out
}

// At returns the identifier of the i-th live node in ring order, the
// order Nodes lists them in; 0 <= i < Size().
func (n *Network) At(i int) ID { return n.ring[i] }

// Node returns the live node with the given identifier, or nil.
func (n *Network) Node(id ID) *Node {
	return n.nodes[id]
}

// AddNode inserts a node with the given identifier and latency-model
// host index into the oracle ring. Its routing tables are empty until
// BuildTables, BuildAllTables or FixAround fills them.
func (n *Network) AddNode(id ID, host int) (*Node, error) {
	if _, dup := n.nodes[id]; dup {
		return nil, fmt.Errorf("chord: duplicate node id %#x", id)
	}
	if host < 0 || host >= n.model.Size() {
		return nil, fmt.Errorf("chord: host index %d outside latency model of size %d", host, n.model.Size())
	}
	node := &Node{net: n, id: id, host: host, alive: true}
	n.nodes[id] = node
	i := sort.Search(len(n.ring), func(i int) bool { return n.ring[i] >= id })
	n.ring = append(n.ring, 0)
	copy(n.ring[i+1:], n.ring[i:])
	n.ring[i] = id
	return node, nil
}

// RemoveNode deletes a node from the overlay (a graceful leave at the
// chord layer; the application is responsible for data handoff).
func (n *Network) RemoveNode(id ID) error {
	node, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("chord: remove of unknown node %#x", id)
	}
	node.alive = false
	delete(n.nodes, id)
	i := sort.Search(len(n.ring), func(i int) bool { return n.ring[i] >= id })
	if i < len(n.ring) && n.ring[i] == id {
		n.ring = append(n.ring[:i], n.ring[i+1:]...)
	}
	return nil
}

// CrashNode removes a node abruptly. Unlike the graceful RemoveNode:
//
//   - in-flight messages *from* the crashed node are lost too (its
//     process died with them; a graceful leaver's messages still
//     arrive), and
//   - no application handoff happens — the node's entries are gone
//     until republished or covered by replicas.
//
// In-flight messages *to* the node are lost in both cases. Routing
// state of other nodes is NOT refreshed — stale fingers and successor
// entries are skipped by liveness checks and repaired by FixAround,
// which core's System.CrashNode runs for the crashed node's arc.
func (n *Network) CrashNode(id ID) error {
	node, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("chord: crash of unknown node %#x", id)
	}
	node.crashed = true
	return n.RemoveNode(id)
}

// SuccessorID returns the oracle successor of key: the live node whose
// identifier is equal to or immediately follows key on the ring.
func (n *Network) SuccessorID(key ID) (ID, error) {
	if len(n.ring) == 0 {
		return 0, fmt.Errorf("chord: empty ring")
	}
	return n.ring[n.SuccessorIndex(key)], nil
}

// SuccessorNode returns the oracle successor node of key.
func (n *Network) SuccessorNode(key ID) (*Node, error) {
	id, err := n.SuccessorID(key)
	if err != nil {
		return nil, err
	}
	return n.nodes[id], nil
}

// SuccessorIndex returns the ring index of the oracle successor of
// key, the position At gives it. The ring must not be empty.
func (n *Network) SuccessorIndex(key ID) int {
	i := sort.Search(len(n.ring), func(i int) bool { return n.ring[i] >= key })
	if i == len(n.ring) {
		i = 0
	}
	return i
}

// Latency returns the one-way delay between two nodes.
func (n *Network) Latency(a, b *Node) time.Duration {
	return n.model.Latency(a.host, b.host)
}

// SendRecord simulates a message from node `from` to the node
// currently identified by `to`: it accounts the bytes, waits the
// one-way latency, and then runs h.Recv with the destination node, if
// it is still alive, and arg, the message's record. h.Lost runs instead,
// at send time or at the would-be delivery time, when the destination
// is unknown, either endpoint crashes while the message is in flight,
// or the network's fault policy drops the message. When the fault
// policy duplicates the message, h.Copy hears of the copy before the
// copy is in flight, and a copy that dies ends in h.Drop. Each copy
// therefore ends exactly once — delivered (h.Recv), lost (h.Lost, the
// original only) or dropped (h.Drop, a duplicate only) — which lets a
// record's owner count the copies that can still reach it. A send
// allocates nothing beyond the record the caller already built.
func (n *Network) SendRecord(from *Node, to ID, kind MsgKind, bytes int, h *Handlers, arg any) {
	n.traffic.Add(kind, bytes)
	dst, ok := n.nodes[to]
	if !ok {
		// Destination unknown at send time: the message is charged and
		// lost.
		h.end(arg, false)
		return
	}
	delay := n.model.Latency(from.host, dst.host)
	f := n.faults
	if f != nil {
		if f.lost(n.rt.Rand(), from.host, dst.host, n.rt.Now()) {
			n.traffic.Dropped[kind]++
			// The loss surfaces at the would-be delivery time (not
			// synchronously): a sender can only learn of it the way a
			// real one would, by timeout — or, in the fire-and-forget
			// accounting mode, through h.Lost.
			if h.Lost != nil {
				m := n.acquireInflight()
				m.net, m.h, m.arg, m.lost = n, h, arg, true
				n.rt.ScheduleArg(delay, runInflight, m)
			}
			return
		}
		delay += f.extraDelay(n.rt.Rand())
	}
	m := n.acquireInflight()
	m.net, m.from, m.to, m.h, m.arg = n, from, to, h, arg
	n.rt.ScheduleArg(delay, runInflight, m)
	if f != nil && f.duplicated(n.rt.Rand(), kind) {
		// A spurious retransmission: the copy is charged like any other
		// message and arrives after twice the original's delay, on its
		// own pooled record. It never runs h.Lost — losing a duplicate
		// means nothing, and firing that twice would double-account the
		// loss — but the record hears of the copy and of its end
		// (h.Copy, h.Drop).
		n.traffic.Add(kind, bytes)
		n.traffic.Duplicated++
		d := n.acquireInflight()
		d.net, d.from, d.to, d.h, d.arg, d.dup = n, from, to, h, arg, true
		if h.Copy != nil {
			h.Copy(arg)
		}
		n.rt.ScheduleArg(2*delay, runInflight, d)
	}
}

// Handlers are what a record sent by SendRecord runs. Recv is required;
// a nil Lost lets a loss go unreported, and nil Copy and Drop leave
// duplicates unaccounted. They are meant to be package-level functions,
// in a Handlers that outlives the message.
type Handlers struct {
	// Recv delivers one copy at dst.
	Recv func(dst *Node, arg any)
	// Lost is the original copy's loss.
	Lost func(arg any)
	// Copy runs at send time for each duplicate the fault policy adds.
	Copy func(arg any)
	// Drop is a duplicate copy's loss.
	Drop func(arg any)
}

// end runs a copy's loss: Drop for a duplicate, Lost for the original.
func (h *Handlers) end(arg any, dup bool) {
	switch {
	case dup:
		if h.Drop != nil {
			h.Drop(arg)
		}
	case h.Lost != nil:
		h.Lost(arg)
	}
}

// inflight is one in-transit copy of a message: its record and
// handlers, the argument of its delivery event, pooled on the Network
// so the send path allocates nothing. lost marks a message the fault
// policy dropped: its event only reports the loss. dup marks a fault
// duplicate's copy.
type inflight struct {
	net       *Network
	from      *Node
	to        ID
	h         *Handlers
	arg       any
	dup, lost bool
}

// runInflight is the delivery event of every message (a package-level
// function value allocates nothing at the ScheduleArg call).
func runInflight(arg any) { arg.(*inflight).run() }

// run performs the delivery-time liveness checks of SendRecord and then
// recycles the record. Fields are copied out and the record is returned
// to the pool before any handler runs, because handlers routinely send
// further messages.
func (m *inflight) run() {
	n, from, to, h, arg, dup, lost := m.net, m.from, m.to, m.h, m.arg, m.dup, m.lost
	*m = inflight{}
	n.pool = append(n.pool, m)
	if lost || from.crashed {
		// Dropped by the fault policy, or the sender's process died
		// while the message was in flight (CrashNode semantics) and the
		// message dies with it.
		h.end(arg, dup)
		return
	}
	cur, ok := n.nodes[to]
	if !ok || !cur.alive {
		h.end(arg, dup)
		return // destination departed in flight
	}
	h.Recv(cur, arg)
}

// acquireInflight pops a recycled record or allocates a fresh one.
func (n *Network) acquireInflight() *inflight {
	if ln := len(n.pool); ln > 0 {
		m := n.pool[ln-1]
		n.pool = n.pool[:ln-1]
		return m
	}
	return &inflight{}
}

// FixAround rebuilds oracle routing state in the neighborhood of ring
// position pos: the node covering pos, its Successors predecessors
// (whose successor lists reference the region) and its immediate
// successor. Distant stale fingers remain; NextHop skips dead entries,
// so routing stays correct until a full refresh (BuildAllTables)
// restores optimality — exactly Chord's behavior under churn between
// fix-finger rounds.
func (n *Network) FixAround(pos ID) {
	if len(n.ring) == 0 {
		return
	}
	ln := len(n.ring)
	idx := n.SuccessorIndex(pos)
	span := Successors + 2
	if span > ln {
		span = ln
	}
	for i := 0; i < span; i++ {
		n.BuildTables(n.nodes[n.ring[(idx-i+ln*2)%ln]])
	}
	n.BuildTables(n.nodes[n.ring[(idx+1)%ln]])
}

// BuildAllTables installs oracle-stabilized routing state on every
// node: correct successor lists, predecessors, and fingers (PNS-aware
// when enabled). This models a network that has fully stabilized, the
// state the paper measures queries in.
func (n *Network) BuildAllTables() {
	for _, id := range n.ring {
		n.BuildTables(n.nodes[id])
	}
}

// BuildTables installs oracle-stabilized state on one node.
func (n *Network) BuildTables(node *Node) {
	r := n.ring
	ln := len(r)
	if ln == 0 {
		return
	}
	self := sort.Search(ln, func(i int) bool { return r[i] >= node.id })
	if self == ln || r[self] != node.id {
		return // not on the ring
	}
	// Predecessor.
	node.pred = r[(self-1+ln)%ln]
	node.hasPred = true
	// Successor list.
	ns := Successors
	if ns > ln-1 {
		ns = ln - 1
	}
	node.succ = node.succ[:0]
	for i := 1; i <= ns; i++ {
		node.succ = append(node.succ, r[(self+i)%ln])
	}
	if len(node.succ) == 0 {
		node.succ = append(node.succ, node.id) // single-node ring
	}
	// Fingers: finger i targets id + 2^i, interval [id+2^i, id+2^(i+1)).
	for i := 0; i < 64; i++ {
		start := node.id + 1<<uint(i)
		node.fingers[i] = n.pickFinger(node, start, start+1<<uint(i))
	}
	node.tableChanged()
}

// pnsSample is the number of ring-order candidates examined per finger
// when PNS is on (Chord-PNS(16)).
const pnsSample = 16

// pickFinger returns the finger for interval [start, end): without PNS
// the successor of start; with PNS the lowest-latency node among the
// first pnsSample ring-order candidates inside the interval.
func (n *Network) pickFinger(node *Node, start, end ID) ID {
	idx := n.SuccessorIndex(start)
	first := n.ring[idx]
	if !n.cfg.PNS {
		return first
	}
	best := first
	if !InOpenClosed(start-1, first, end-1) {
		// Interval is empty of nodes: plain successor.
		return first
	}
	bestLat := n.model.Latency(node.host, n.nodes[first].host)
	ln := len(n.ring)
	for c := 1; c < pnsSample && c < ln; c++ {
		cand := n.ring[(idx+c)%ln]
		if !InOpenClosed(start-1, cand, end-1) {
			break
		}
		if lat := n.model.Latency(node.host, n.nodes[cand].host); lat < bestLat {
			best, bestLat = cand, lat
		}
	}
	return best
}
