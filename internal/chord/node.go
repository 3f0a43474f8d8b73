package chord

import (
	"fmt"

	"landmarkdht/internal/runtime"
)

// Node is one overlay participant.
type Node struct {
	net  *Network
	id   ID
	host int

	alive       bool
	crashed     bool
	tablesBuilt bool
	pred        ID
	hasPred     bool
	succ        []ID
	fingers     [64]ID

	ticker *runtime.Ticker
}

// ID returns the node's ring identifier.
func (nd *Node) ID() ID { return nd.id }

// Host returns the node's index in the latency model.
func (nd *Node) Host() int { return nd.host }

// Alive reports whether the node is still part of the overlay.
func (nd *Node) Alive() bool { return nd.alive }

// Crashed reports whether the node left the overlay by crashing (as
// opposed to a graceful leave). In-flight messages from a crashed node
// are lost.
func (nd *Node) Crashed() bool { return nd.crashed }

// Network returns the overlay the node belongs to.
func (nd *Node) Network() *Network { return nd.net }

// Successor returns the node's first live successor (itself on a
// single-node ring).
func (nd *Node) Successor() ID {
	for _, s := range nd.succ {
		if _, ok := nd.net.nodes[s]; ok {
			return s
		}
	}
	return nd.id
}

// SuccessorList returns a copy of the successor list.
func (nd *Node) SuccessorList() []ID { return append([]ID(nil), nd.succ...) }

// Predecessor returns the predecessor and whether it is known.
func (nd *Node) Predecessor() (ID, bool) { return nd.pred, nd.hasPred }

// Finger returns finger i (the node believed to succeed id + 2^i).
func (nd *Node) Finger(i int) ID { return nd.fingers[i] }

// OwnsKey reports whether this node is responsible for key, i.e.
// key ∈ (predecessor, id]. With no known predecessor the node claims
// everything (single-node ring).
func (nd *Node) OwnsKey(key ID) bool {
	if !nd.hasPred || nd.pred == nd.id {
		return true
	}
	return InOpenClosed(nd.pred, key, nd.id)
}

// Table iterates over the node's routing table in table order: the
// successor list, then the fingers from the nearest up, each run of
// equal consecutive fingers once. Most of a finger table is one run —
// every finger whose interval holds no node is the same successor, ≈ 56
// of 64 on a 256-node ring. What is left may still repeat (the first
// finger, a far finger that is also a successor), may be dead, and is
// the zero ID where a table was never filled: a caller deals with those
// as it would entry by entry.
func (nd *Node) Table(yield func(ID) bool) {
	for _, s := range nd.succ {
		if !yield(s) {
			return
		}
	}
	for i, f := range nd.fingers {
		if i > 0 && f == nd.fingers[i-1] {
			continue
		}
		if !yield(f) {
			return
		}
	}
}

// NextHop implements the paper's footnote 4: the routing-table entry
// (fingers ∪ successor list ∪ self) whose identifier is immediately
// before key on the ring. It returns the node's own id when no table
// entry improves on it — the caller then hands the query to the
// successor for surrogate refinement.
//
// Distinct ids are at distinct distances from key, so the answer is the
// strict minimum over the live entries whatever the order: liveness is
// probed only for an entry that would beat the best so far.
func (nd *Node) NextHop(key ID) ID {
	best := nd.id
	bestDist := Dist(nd.id, key) // clockwise distance remaining after hop
	for c := range nd.Table {
		// c == key: that node *is* the successor, not the predecessor.
		if d := Dist(c, key); d < bestDist && c != key {
			if _, live := nd.net.nodes[c]; live {
				best, bestDist = c, d
			}
		}
	}
	return best
}

// String describes the node.
func (nd *Node) String() string {
	return fmt.Sprintf("chord.Node(%#x)", nd.id)
}

// StopMaintenance halts the node's protocol maintenance timer. Used
// when a measurement phase wants a quiescent network.
func (nd *Node) StopMaintenance() { nd.stopMaintenance() }

// stopMaintenance halts the protocol timer if running.
func (nd *Node) stopMaintenance() {
	if nd.ticker != nil {
		nd.ticker.Stop()
		nd.ticker = nil
	}
}

// FindSuccessor resolves successor(key) with the iterative Chord
// lookup over simulated messages: at most one round trip per hop, each
// hop chosen by NextHop at the queried node. done receives the
// successor's identifier and the number of hops taken.
func (nd *Node) FindSuccessor(key ID, bytes int, done func(owner ID, hops int)) {
	nd.findStep(nd, key, bytes, 0, done)
}

const maxLookupHops = 128

func (nd *Node) findStep(cur *Node, key ID, bytes, hops int, done func(ID, int)) {
	// If key ∈ (cur, successor(cur)], the successor owns it.
	succ := cur.Successor()
	if succ == cur.id || InOpenClosed(cur.id, key, succ) {
		done(succ, hops)
		return
	}
	next := cur.NextHop(key)
	if next == cur.id {
		// No table entry improves: the successor is the best guess.
		done(succ, hops)
		return
	}
	if hops >= maxLookupHops {
		done(succ, hops)
		return
	}
	// One message to the next hop; the continuation runs there.
	nd.net.Send(cur, next, KindLookup, bytes, func(dst *Node) {
		nd.findStep(dst, key, bytes, hops+1, done)
	})
}
