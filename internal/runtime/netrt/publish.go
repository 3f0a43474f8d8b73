package netrt

// Online mutations: Publish inserts an object under a caller-chosen id
// (disjoint from the boot corpus), Delete removes an entry. Mutations
// route to the owner of the object's ring key exactly as queries route
// regions; the owner validates the change, appends one record to its
// WAL when durable, applies it to its delta (delta.go), fans it out to
// its replicas, and acks the origin — in that order, so an acknowledged
// mutation is always a journaled one and a failed append leaves nothing
// applied. A restarted durable node replays its mutation records on top
// of the corpus it builds before serving.
//
// Mutations to a down owner fail fast instead of queueing: while an
// owner is dead its replica copies must stay static, which is exactly
// what makes failover reads exact. A mutation follows its key when the
// ring grows (handOff).

import (
	"bytes"
	"fmt"
	"time"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/runtime"
)

// pendingPub is one in-flight mutation originated at this node.
type pendingPub struct {
	done  func(error)
	timer runtime.Timer
}

// Publish inserts one object under id, routed to the owner of its ring
// key. The id must not collide with the boot corpus. Safe from any
// goroutine.
func (n *Node) Publish(id int32, obj []byte, timeout time.Duration) error {
	return n.mutate(id, obj, false, timeout)
}

// Delete removes one entry: a boot-corpus entry by id alone, or a
// published entry by id plus its encoded object (the bytes re-derive
// the ring key the delete routes by). Safe from any goroutine.
func (n *Node) Delete(id int32, obj []byte, timeout time.Duration) error {
	return n.mutate(id, obj, true, timeout)
}

func (n *Node) mutate(id int32, obj []byte, del bool, timeout time.Duration) error {
	var merr error
	err := n.rt.Await(timeout, func(finish func()) error {
		n.startMutation(id, obj, del, func(err error) {
			merr = err
			finish()
		})
		return nil
	})
	if err != nil {
		return err
	}
	return merr
}

// startMutation begins one mutation at this node (executor only). done
// fires exactly once, on the executor.
//
//lint:context executor
func (n *Node) startMutation(id int32, obj []byte, del bool, done func(error)) {
	var key lph.Key
	switch {
	case len(obj) > 0:
		k, _, _, err := n.data.MapObj(obj)
		if err != nil {
			done(err)
			return
		}
		key = k
	case del && n.boot(id):
		key = n.data.Key(int(id))
	default:
		done(fmt.Errorf("netrt: mutation of id %d needs the encoded object", id))
		return
	}
	n.nextRID++
	rid := n.nextRID
	pp := &pendingPub{done: done}
	n.pubs[rid] = pp
	pp.timer = n.rt.AfterFunc(n.cfg.Deadline, func() {
		if n.pubs[rid] == pp {
			delete(n.pubs, rid)
			done(fmt.Errorf("netrt: mutation timed out after %v", n.cfg.Deadline))
		}
	})
	n.routeMutation(&pubMsg{
		Origin: n.id, OriginAddr: n.addr, Epoch: n.epoch, RID: rid,
		ID: id, Obj: obj, Key: uint64(key), Delete: del, TTL: forwardTTL,
	})
}

// routeMutation forwards a mutation toward the owner of its ring key,
// which journals it, applies it and acks.
//
//lint:context executor
func (n *Node) routeMutation(m *pubMsg) {
	if m.TTL <= 0 {
		n.mutAck(m, "ttl exhausted")
		return
	}
	owner := n.successor(m.Key)
	if owner == n.id {
		x, err := n.checkMutation(m)
		if err == nil {
			err = n.journalMutation(m, x)
		}
		if err != nil {
			n.mutAck(m, err.Error())
			return
		}
		n.mine.apply(m.ID, n.boot(m.ID), x)
		n.fanoutMutation(m)
		n.mutAck(m, "")
		return
	}
	if n.isDown(owner) {
		n.mutAck(m, fmt.Sprintf("owner %016x down", owner))
		return
	}
	fm := *m
	fm.TTL--
	n.sendRaw(n.members[owner], appendPub(nil, &fm))
}

// boot reports whether id names an entry of the boot corpus.
func (n *Node) boot(id int32) bool { return id >= 0 && int(id) < n.data.N() }

// checkMutation validates one mutation against this node's delta before
// anything is journaled, and returns what it does to a delta.
//
//lint:context executor
func (n *Node) checkMutation(m *pubMsg) (*extra, error) {
	if m.Delete {
		if _, ok := n.mine.extras[m.ID]; !ok && !n.boot(m.ID) {
			return nil, fmt.Errorf("netrt: delete of unknown id %d", m.ID)
		}
		return nil, nil
	}
	if n.boot(m.ID) {
		return nil, fmt.Errorf("netrt: publish id %d collides with the boot corpus", m.ID)
	}
	return n.extraOf(m)
}

// extraOf maps a mutation's object to the extra it places (nil for a
// delete). The key is derived here, not read off the frame.
func (n *Node) extraOf(m *pubMsg) (*extra, error) {
	if m.Delete {
		return nil, nil
	}
	return placeExtra(n.data, m.Obj)
}

// fanoutMutation forwards an applied mutation to this owner's replicas
// as Replica-marked copies (applied to their copy of this delta, never
// re-routed, never acked). A replica that misses the fan-out — down,
// shed frame — diverges and is repaired by the next digest exchange.
//
//lint:context executor
func (n *Node) fanoutMutation(m *pubMsg) {
	targets := n.replicaTargets(n.id)
	if len(targets) == 0 {
		return
	}
	fm := *m
	fm.Replica, fm.Owner = true, n.id
	payload := appendPub(nil, &fm) // queued payloads are read-only: every replica's link shares the one encoding
	for _, t := range targets {
		if t != n.id && !n.isDown(t) {
			n.sendRaw(n.members[t], payload)
		}
	}
}

// onPublish handles an inbound mutation frame: replica fan-out applies
// to the local copy of its owner's delta — unless there is no synced
// baseline, in which case the anti-entropy stream will deliver the whole
// delta instead — and anything else keeps routing.
//
//lint:context executor
func (n *Node) onPublish(m *pubMsg) {
	if !m.Replica {
		n.routeMutation(m)
		return
	}
	c := n.copies[m.Owner]
	if c == nil || !c.synced {
		return
	}
	if x, err := n.extraOf(m); err == nil {
		c.apply(m.ID, n.boot(m.ID), x)
	}
}

// handOff routes every item of this node's delta whose key another
// member now owns to that member, as an ordinary mutation — a tombstone
// as the delete of its boot id, an extra as its publish — and forgets
// the item once the new owner acks. An extra is journaled as deleted
// before it is forgotten, so a restart cannot resurrect it here; a
// tombstone is inert outside the arc, and after a restart it is simply
// handed off again. rebuildView calls this on every view change and the
// anti-entropy tick retries what is still unacknowledged; until the ack,
// the new owner answers its arc without the item.
//
//lint:context executor
func (n *Node) handOff() {
	for _, id := range sortedIDs(n.mine.tombs) {
		n.handTo(id, nil, n.data.Key(int(id)))
	}
	for _, id := range sortedIDs(n.mine.extras) {
		x := *n.mine.extra(id)
		n.handTo(id, &x, n.data.Part().Ring(x.key))
	}
}

// handTo starts the hand-off of one delta item — the extra x, or the
// tombstone under id when x is nil — keyed at ring position key, unless
// this node owns that or the hand-off is under way. Members are never
// evicted, so an arc only shrinks: an item that left is not owned here
// again when its ack comes back.
//
//lint:context executor
func (n *Node) handTo(id int32, x *extra, key lph.Key) {
	if n.successor(uint64(key)) == n.id || n.handing[id] {
		return
	}
	n.handing[id] = true
	var obj []byte
	if x != nil {
		obj = x.obj
	}
	n.startMutation(id, obj, x == nil, func(err error) {
		delete(n.handing, id)
		if err != nil {
			return // still in the delta: the next tick retries
		}
		if x != nil {
			if cur := n.mine.extra(id); cur == nil || !bytes.Equal(cur.obj, x.obj) {
				return // republished meanwhile: that one is handed off, or kept, on its own
			}
			if n.journalMutation(&pubMsg{ID: id, Delete: true}, nil) != nil {
				return // not journaled as gone: keep it, the retry is idempotent
			}
		}
		n.mine.forget(id)
	})
}

// mutAck reports a mutation's outcome to its origin.
//
//lint:context executor
func (n *Node) mutAck(m *pubMsg, errstr string) {
	ack := pubAckMsg{Epoch: m.Epoch, RID: m.RID, Err: errstr}
	if m.Origin == n.id {
		n.onPubAck(&ack)
		return
	}
	n.sendRaw(m.OriginAddr, appendPubAck(nil, &ack))
}

// onPubAck completes one pending mutation. Epoch routing keeps acks
// addressed to a previous incarnation away from this one's rids.
//
//lint:context executor
func (n *Node) onPubAck(a *pubAckMsg) {
	if a.Epoch != n.epoch {
		return
	}
	pp := n.pubs[a.RID]
	if pp == nil {
		return
	}
	delete(n.pubs, a.RID)
	pp.timer.Stop()
	if a.Err != "" {
		pp.done(fmt.Errorf("netrt: mutation failed: %s", a.Err))
		return
	}
	pp.done(nil)
}
