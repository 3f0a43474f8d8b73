package netrt

// Heartbeat-based failure detection. Every HeartbeatPeriod the node
// probes each known member with a sequenced ping; an unanswered probe
// raises the member's suspicion counter, and SuspectAfter consecutive
// misses mark it down. Suspicion halves on every answered probe and a
// down member comes back as soon as enough probes are answered —
// consistent with the membership layer, which never evicts a member, a
// down verdict is never permanent. Down members have their region's
// subqueries answered from replica copies (query.go) and their repair
// streams paused (replica.go); everything else — gossip, links, the
// ring itself — is untouched.

// hbState is one member's detector state.
type hbState struct {
	seq   uint64 // last probe sequence sent
	acked uint64 // highest probe sequence answered
	susp  int    // consecutive unanswered probes, halved on answers
	down  bool
}

// heartbeatTick books the previous round's misses and probes every
// member.
//
//lint:context executor
func (n *Node) heartbeatTick() {
	for _, id := range n.ring {
		if id == n.id {
			continue
		}
		st := n.hb[id]
		if st == nil {
			st = &hbState{}
			n.hb[id] = st
		}
		if st.seq > st.acked {
			st.susp++
			if !st.down && st.susp >= n.cfg.SuspectAfter {
				st.down = true
				n.logf("member %016x down (%d unanswered probes)", id, st.susp)
			}
		}
		st.seq++
		n.sendRaw(n.members[id], appendPing(nil, kindPing, pingMsg{From: n.id, Seq: st.seq}))
	}
}

// onPing answers a probe with its sequence number.
//
//lint:context executor
func (n *Node) onPing(p pingMsg) {
	n.sendRaw(n.members[p.From], appendPing(nil, kindPong, pingMsg{From: n.id, Seq: p.Seq}))
}

// onPong books an answered probe: suspicion decays, and a down member
// recovers once the decayed count falls under the threshold. A stale
// pong (already-acked sequence) cannot revive a re-suspected member.
//
//lint:context executor
func (n *Node) onPong(p pingMsg) {
	st := n.hb[p.From]
	if st == nil || p.Seq <= st.acked {
		return
	}
	st.acked = p.Seq
	st.susp /= 2
	if st.down && st.susp < n.cfg.SuspectAfter {
		st.down = false
		n.logf("member %016x back up", p.From)
	}
}

// isDown reports the detector's current verdict on a member.
//
//lint:context executor
func (n *Node) isDown(id uint64) bool {
	st := n.hb[id]
	return st != nil && st.down
}

// downMembers lists the members currently marked down, in ring order.
//
//lint:context executor
func (n *Node) downMembers() []uint64 {
	var out []uint64
	for _, id := range n.ring {
		if n.isDown(id) {
			out = append(out, id)
		}
	}
	return out
}
