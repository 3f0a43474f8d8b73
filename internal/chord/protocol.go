package chord

import (
	"time"

	"landmarkdht/internal/runtime"
)

// This file contains the message-driven maintenance protocol: join,
// stabilize, notify, fix-fingers and successor-list refresh, following
// Stoica et al. §IV. The big experiments bring the network up through
// the oracle fast path (BuildAllTables) — equivalent to a fully
// stabilized network — but the protocol implementation demonstrates
// and tests that the overlay converges to the same state by messages
// alone. Protocol-mode fingers use plain successor placement; PNS
// optimization is applied by the oracle builder (in a deployment it
// would sample the owner's successor list, which the simulator's
// oracle reproduces exactly).

// maintenanceBytes is the nominal size of one maintenance message.
const maintenanceBytes = 40

// JoinVia performs a protocol join through the bootstrap node: it
// resolves successor(id) with an iterative lookup, adopts it as the
// first successor, and starts maintenance if the network has a
// maintenance period configured. done (optional) fires when the join
// lookup completes.
func (nd *Node) JoinVia(bootstrap ID, done func()) {
	boot := nd.net.Node(bootstrap)
	if boot == nil || bootstrap == nd.id {
		// First node in the system: own everything.
		nd.succ = []ID{nd.id}
		nd.tableChanged()
		nd.hasPred = false
		nd.startMaintenance()
		if done != nil {
			done()
		}
		return
	}
	// The join request travels to the bootstrap, which resolves the
	// successor of the joiner's identifier.
	nd.net.Send(nd, bootstrap, KindMaintenance, maintenanceBytes, func(b *Node) {
		b.FindSuccessor(nd.id, maintenanceBytes, func(owner ID, _ int) {
			if owner == nd.id {
				owner = b.id
			}
			nd.succ = []ID{owner}
			nd.tableChanged()
			nd.hasPred = false
			nd.startMaintenance()
			if done != nil {
				done()
			}
		})
	})
}

func (nd *Node) startMaintenance() {
	period := nd.net.cfg.StabilizeEvery
	if period <= 0 || nd.ticker != nil {
		return
	}
	offset := time.Duration(nd.net.rt.Rand().Int63n(int64(period)))
	round := 0
	nd.ticker = runtime.NewTicker(nd.net.rt, offset, period, func() {
		if !nd.alive {
			nd.stopMaintenance()
			return
		}
		nd.stabilize()
		nd.fixFinger(round % 64)
		round++
	})
}

// stabilize asks the successor for its predecessor and successor list
// and adopts a closer successor if one appeared, then notifies the
// successor of our existence.
func (nd *Node) stabilize() {
	succ := nd.Successor()
	if succ == nd.id {
		// Single-node view: if a notify has told us about a
		// predecessor, it is also our best successor candidate
		// (standard Chord behavior when the successor is self).
		if nd.hasPred && nd.net.Node(nd.pred) != nil {
			nd.succ = []ID{nd.pred}
			nd.tableChanged()
		}
		return
	}
	nd.net.Send(nd, succ, KindMaintenance, maintenanceBytes, func(s *Node) {
		sPred, sHas := s.pred, s.hasPred
		sList := s.SuccessorList()
		// Reply travels back.
		nd.net.Send(s, nd.id, KindMaintenance, maintenanceBytes, func(me *Node) {
			cur := me.Successor()
			if sHas && InOpen(me.id, sPred, cur) {
				if nd.net.Node(sPred) != nil {
					cur = sPred
				}
			}
			// Rebuild successor list: cur followed by its list.
			list := append([]ID{cur}, sList...)
			me.succ = dedupeTrim(me.id, list, nd.net.cfg.NumSuccessors, nd.net)
			me.tableChanged()
			// Notify the (possibly new) successor.
			target := me.Successor()
			if target != me.id {
				nd.net.Send(me, target, KindMaintenance, maintenanceBytes, func(t *Node) {
					t.notify(me.id)
				})
			}
		})
	})
}

// notify is Chord's notify(): candidate believes it may be our
// predecessor.
func (nd *Node) notify(candidate ID) {
	if candidate == nd.id {
		return
	}
	if !nd.hasPred || InOpen(nd.pred, candidate, nd.id) || nd.net.Node(nd.pred) == nil {
		nd.pred = candidate
		nd.hasPred = true
	}
}

// fixFinger refreshes finger i by looking up successor(id + 2^i).
func (nd *Node) fixFinger(i int) {
	target := nd.id + 1<<uint(i)
	nd.FindSuccessor(target, maintenanceBytes, func(owner ID, _ int) {
		if nd.alive {
			nd.fingers[i] = owner
			nd.tableChanged()
		}
	})
}

// dedupeTrim builds a successor list from candidates: live nodes only,
// deduplicated, excluding self, at most max entries, preserving ring
// order from the first element.
func dedupeTrim(self ID, candidates []ID, max int, net *Network) []ID {
	seen := make(map[ID]bool, len(candidates))
	out := make([]ID, 0, max)
	for _, c := range candidates {
		if c == self || seen[c] || net.Node(c) == nil {
			continue
		}
		seen[c] = true
		out = append(out, c)
		if len(out) == max {
			break
		}
	}
	if len(out) == 0 {
		out = append(out, self)
	}
	return out
}
