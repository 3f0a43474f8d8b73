package netrt

// Online mutations: Publish inserts an object under a caller-chosen id
// (disjoint from the boot corpus), Delete removes an entry. Mutations
// route to the owner of the object's ring key exactly as queries route
// regions; the owner validates the change, appends one record to its
// WAL when durable, applies it to its live region, fans it out to its
// replicas, and acks the origin — in that order, so an acknowledged
// mutation is always a journaled one and a failed append leaves nothing
// applied. A restarted durable node replays its mutation records on top
// of the corpus it builds before serving.
//
// Mutations to a down owner fail fast instead of queueing: while an
// owner is dead its replica copies must stay static, which is exactly
// what makes failover reads exact.

import (
	"fmt"
	"time"

	"landmarkdht/internal/core"
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
		k, _, err := n.data.MapObj(obj)
		if err != nil {
			done(err)
			return
		}
		key = k
	case del && int(id) >= 0 && int(id) < n.data.N():
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
		point, err := n.checkMutation(m)
		if err == nil {
			err = n.journalMutation(m, point)
		}
		if err != nil {
			n.mutAck(m, err.Error())
			return
		}
		n.applyMutation(m, point)
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

// checkMutation validates one mutation against the live region before
// anything is journaled, and maps a publish to its index-space point.
//
//lint:context executor
func (n *Node) checkMutation(m *pubMsg) ([]float64, error) {
	boot := int(m.ID) >= 0 && int(m.ID) < n.data.N()
	if m.Delete {
		if _, ok := n.extras[m.ID]; !ok && !boot {
			return nil, fmt.Errorf("netrt: delete of unknown id %d", m.ID)
		}
		return nil, nil
	}
	if boot {
		return nil, fmt.Errorf("netrt: publish id %d collides with the boot corpus", m.ID)
	}
	_, point, err := n.data.MapObj(m.Obj)
	return point, err
}

// applyMutation applies one checked mutation to the live region,
// keeping the region digest incrementally correct.
//
//lint:context executor
func (n *Node) applyMutation(m *pubMsg, point []float64) {
	if m.Delete {
		if e, ok := n.extras[m.ID]; ok {
			delete(n.extras, m.ID)
			n.mineDigest ^= e.dig
			n.mineCount--
			return
		}
		if _, dead := n.tombs[m.ID]; dead {
			return // idempotent
		}
		n.tombs[m.ID] = struct{}{}
		if i := int(m.ID); n.ownsBoot(i) {
			n.mineDigest ^= n.bootDigest(i)
			n.mineCount--
		}
		return
	}
	e := repEntry{key: lph.Key(m.Key), point: point, obj: m.Obj}
	e.dig = core.EntryDigest(e.key, core.Entry{Obj: core.ObjectID(m.ID), Point: point}, m.Obj)
	if old, ok := n.extras[m.ID]; ok {
		n.mineDigest ^= old.dig
		n.mineCount--
	}
	n.extras[m.ID] = e
	n.mineDigest ^= e.dig
	n.mineCount++
}

// ownsBoot reports whether boot entry i is currently owned here.
//
//lint:context executor
func (n *Node) ownsBoot(i int) bool {
	return n.successor(uint64(n.data.Key(i))) == n.id
}

// bootDigest returns boot entry i's digest.
func (n *Node) bootDigest(i int) uint64 {
	j := n.data.Cols().pos[i]
	return n.digPre[j+1] ^ n.digPre[j]
}

// fanoutMutation forwards an applied mutation to this owner's replicas
// as Replica-marked copies (applied to their copy of this region, never
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
// to the local copy, anything else keeps routing.
//
//lint:context executor
func (n *Node) onPublish(m *pubMsg) {
	if m.Replica {
		n.applyToCopy(m)
		return
	}
	n.routeMutation(m)
}

// applyToCopy applies one fanned-out mutation to the copy of its
// owner's region. Without a synced baseline the fan-out is skipped —
// the anti-entropy stream will deliver the whole region instead.
//
//lint:context executor
func (n *Node) applyToCopy(m *pubMsg) {
	c := n.copies[m.Owner]
	if c == nil || !c.synced {
		return
	}
	if m.Delete {
		if e, ok := c.entries[m.ID]; ok {
			delete(c.entries, m.ID)
			c.digest ^= e.dig
		}
		return
	}
	_, point, err := n.data.MapObj(m.Obj)
	if err != nil {
		return
	}
	e := repEntry{key: lph.Key(m.Key), point: point, obj: m.Obj}
	e.dig = core.EntryDigest(e.key, core.Entry{Obj: core.ObjectID(m.ID), Point: point}, m.Obj)
	if old, ok := c.entries[m.ID]; ok {
		c.digest ^= old.dig
	}
	c.entries[m.ID] = e
	c.digest ^= e.dig
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

// applyRecovered replays one journaled mutation during startup (before
// the first view build — rebuildView folds the result into the region
// digest). Records replay in log order, so publish/delete interleavings
// resolve exactly as they were applied.
//
//lint:context executor
func (n *Node) applyRecovered(m durableMut) {
	if m.del {
		if int(m.id) >= 0 && int(m.id) < n.data.N() {
			n.tombs[m.id] = struct{}{}
		} else {
			delete(n.extras, m.id)
		}
		return
	}
	e := repEntry{key: m.key, point: m.point, obj: m.obj}
	e.dig = core.EntryDigest(m.key, core.Entry{Obj: core.ObjectID(m.id), Point: m.point}, m.obj)
	n.extras[m.id] = e
}
