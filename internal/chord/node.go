package chord

import (
	"fmt"
	"slices"
)

// Node is one overlay participant.
type Node struct {
	net  *Network
	id   ID
	host int

	alive   bool
	crashed bool
	pred    ID
	hasPred bool
	succ    []ID
	fingers [64]ID

	// table is succ ∪ fingers, each id once, sorted clockwise from id
	// (by the offset c − id), and sorted says whether it still is: every
	// write to succ or fingers calls tableChanged, and the next read
	// rebuilds it in place (RoutingTable).
	table  []ID
	sorted bool
}

// ID returns the node's ring identifier.
func (nd *Node) ID() ID { return nd.id }

// Host returns the node's index in the latency model.
func (nd *Node) Host() int { return nd.host }

// Alive reports whether the node is still part of the overlay.
func (nd *Node) Alive() bool { return nd.alive }

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

// OwnsKey reports whether this node is responsible for key, i.e.
// key ∈ (predecessor, id]. With no known predecessor the node claims
// everything (single-node ring).
func (nd *Node) OwnsKey(key ID) bool {
	if !nd.hasPred || nd.pred == nd.id {
		return true
	}
	return InOpenClosed(nd.pred, key, nd.id)
}

// tableChanged marks the sorted routing table stale. Every write to
// succ or fingers calls it.
func (nd *Node) tableChanged() { nd.sorted = false }

// RoutingTable returns the node's routing table — the successor list and
// the fingers, each distinct id once — sorted clockwise from the node, by
// the offset c − id in wrapping arithmetic; the node itself, where it is
// an entry, comes first. Most of a finger table is one id — every finger
// whose interval holds no node is the same successor, ≈ 56 of 64 on a
// 256-node ring. Entries may be dead, and an unfilled finger is the zero
// ID: a caller deals with those as it would entry by entry.
//
// The slice is the node's own, rebuilt in place after succ or fingers
// changed: the caller must not modify it, nor keep it past a change.
func (nd *Node) RoutingTable() []ID {
	if !nd.sorted {
		t := slices.Grow(nd.table[:0], len(nd.succ)+len(nd.fingers))
		t = append(append(t, nd.succ...), nd.fingers[:]...)
		for i := range t {
			t[i] -= nd.id
		}
		slices.Sort(t)
		t = slices.Compact(t)
		for i := range t {
			t[i] += nd.id
		}
		nd.table, nd.sorted = t, true
	}
	return nd.table
}

// NextHop implements the paper's footnote 4: the routing-table entry
// (fingers ∪ successor list ∪ self) whose identifier is immediately
// before key on the ring. It returns the node's own id when no table
// entry improves on it — the caller then hands the query to the
// successor for surrogate refinement.
//
// The entries that improve on the node are those clockwise between it
// and key, offsets in (0, key − id); the nearest to key has the largest
// offset. A binary search over RoutingTable finds the last entry below
// key's offset and walks down to the first live one. Distinct ids lie at
// distinct distances from key, so this is the strict minimum over the
// live entries, the answer of a walk over the whole table.
func (nd *Node) NextHop(key ID) ID {
	t, off := nd.RoutingTable(), key-nd.id
	lo, hi := 0, len(t)
	for lo < hi { // lo: the number of entries whose offset is below off
		h := int(uint(lo+hi) >> 1)
		if t[h]-nd.id < off {
			lo = h + 1
		} else {
			hi = h
		}
	}
	for i := lo - 1; i >= 0 && t[i] != nd.id; i-- {
		if _, live := nd.net.nodes[t[i]]; live {
			return t[i]
		}
	}
	return nd.id
}

// String describes the node.
func (nd *Node) String() string {
	return fmt.Sprintf("chord.Node(%#x)", nd.id)
}

// Lookup is what a FindSuccessor lookup runs when it ends, in the
// shape of Handlers: Found receives the successor's identifier, the
// number of hops taken and the lookup's arg; Lost (nil: the loss goes
// unreported) runs with arg when a hop's message is lost. They are
// meant to be package-level functions, in a Lookup that outlives the
// lookup.
type Lookup struct {
	Found func(owner ID, hops int, arg any)
	Lost  func(arg any)
}

// FindSuccessor resolves successor(key) with the iterative Chord
// lookup over simulated messages: at most one round trip per hop, each
// hop chosen by NextHop at the queried node. The lookup ends in
// exactly one of h.Found and h.Lost; Found runs inside the call when
// the node itself knows the answer.
func (nd *Node) FindSuccessor(key ID, bytes int, h *Lookup, arg any) {
	n := nd.net
	var l *lookup
	if ln := len(n.lookups); ln > 0 {
		l = n.lookups[ln-1]
		n.lookups = n.lookups[:ln-1]
	} else {
		l = new(lookup)
	}
	*l = lookup{net: n, key: key, bytes: bytes, h: h, arg: arg}
	l.step(nd)
}

const maxLookupHops = 128

// lookup is one FindSuccessor in progress: the record its hop messages
// carry, pooled on the Network.
type lookup struct {
	net   *Network
	key   ID
	bytes int
	hops  int
	h     *Lookup
	arg   any
}

// step runs the lookup at cur: it ends there or sends one message to
// the next hop, where recvHop continues it.
func (l *lookup) step(cur *Node) {
	// If key ∈ (cur, successor(cur)], the successor owns it.
	succ := cur.Successor()
	if succ == cur.id || InOpenClosed(cur.id, l.key, succ) {
		l.found(succ)
		return
	}
	next := cur.NextHop(l.key)
	if next == cur.id || l.hops >= maxLookupHops {
		// No table entry improves, or the hop budget is spent: the
		// successor is the best guess.
		l.found(succ)
		return
	}
	l.net.SendRecord(cur, next, KindLookup, l.bytes, &l.net.hop, l)
}

// found ends the lookup at owner. The record goes back to the pool
// before Found runs, which may start another lookup.
func (l *lookup) found(owner ID) {
	h, arg, hops := l.h, l.arg, l.hops
	l.free()
	h.Found(owner, hops, arg)
}

func (l *lookup) free() {
	n := l.net
	*l = lookup{}
	n.lookups = append(n.lookups, l)
}

// recvHop continues a lookup at the node its hop reached.
func recvHop(dst *Node, arg any) {
	l := arg.(*lookup)
	l.hops++
	l.step(dst)
}

// lostHop ends a lookup whose hop was lost.
func lostHop(arg any) {
	l := arg.(*lookup)
	h, arg := l.h, l.arg
	l.free()
	if h.Lost != nil {
		h.Lost(arg)
	}
}
