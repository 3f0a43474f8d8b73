package netrt

// Region replication and anti-entropy repair. With Config.Replicas = K
// every member keeps its K ring successors current with its delta — the
// tombstones and published extras of its region (delta.go) — and nothing
// more: the boot entries are the corpus every member builds, so a
// replica answers a down owner's subqueries from its own columns,
// filtered by its copy of the owner's delta. The owner applies each
// mutation and fans it out (publish.go); a copy that missed one is
// repaired by streaming the owner's whole delta: sequenced chunks that
// each name their stream, per-chunk acks (proto.go), and the windowed
// sender of internal/xfer.
//
// Synchronization is digest-driven: every AntiEntropyPeriod an owner
// advertises its delta's (count, XOR digest) to each replica; a replica
// whose copy disagrees answers with its own digest, and the owner
// responds by streaming its delta. The same exchange confirms agreement
// — a matching advert marks the copy synced, and only a synced copy whose
// holder is still in the owner's replica set serves queries
// (servingCopy). A ring with no mutations agrees on (0, 0) and syncs by
// advert alone. A torn or divergent stream is discarded after the
// end-to-end digest check and repaired by the next exchange; there is no
// point-wise fallback path, so every repair is a counted bulk stream
// (LinkStats.Repairs / RepairChunks).

import (
	"slices"
	"sort"
	"time"

	"landmarkdht/internal/xfer"
)

const (
	// maxRepChunks and maxRepBytes bound what a receiver will stage for
	// one stream, whatever its chunks claim.
	maxRepChunks = 1 << 14
	maxRepBytes  = 64 << 20
	// minRepEntry is the least one item takes on the stream (a
	// tombstone is its 4-byte id), so maxRepBytes bounds the item count
	// a chunk may claim.
	minRepEntry = 4
)

// repPolicy resends an idle stream's unacked chunks every 300 ms, for up
// to 30 rounds without an acknowledgement (the next anti-entropy
// exchange starts over).
var repPolicy = xfer.Policy{Idle: 300 * time.Millisecond, Rounds: 30}

// replicaCopy is this node's copy of one owner's delta. Only a synced
// copy — digest-confirmed against the owner's advert, or freshly
// installed from a digest-checked stream — serves queries.
type replicaCopy struct {
	delta
	synced bool
}

// repPush is one outbound replica stream.
type repPush struct {
	to       uint64
	addr     string
	transfer uint64
	chunks   [][]byte // pre-encoded kind-prefixed chunk frames
	digest   uint64   // delta digest the stream was cut at
	entries  int
	snd      *xfer.Sender
}

// repStage is one inbound replica stream, as its chunks describe it.
// It outlives its install: data is nil from then on.
type repStage struct {
	transfer uint64
	chunks   uint32
	items    uint32
	digest   uint64
	data     [][]byte
	rx       xfer.Receiver
	bytes    int
}

// replicaTargets returns the min(Replicas, ring−1) distinct members
// after owner in ring order — owner's replica set under the current
// view. Nil when replication is off or owner is not in the view.
//
//lint:context executor
func (n *Node) replicaTargets(owner uint64) []uint64 {
	k := n.cfg.Replicas
	if k <= 0 || len(n.ring) < 2 {
		return nil
	}
	if k > len(n.ring)-1 {
		k = len(n.ring) - 1
	}
	i := sort.Search(len(n.ring), func(i int) bool { return n.ring[i] >= owner })
	if i == len(n.ring) || n.ring[i] != owner {
		return nil
	}
	out := make([]uint64, 0, k)
	for j := 1; j <= k; j++ {
		out = append(out, n.ring[(i+j)%len(n.ring)])
	}
	return out
}

// antiEntropyTick retries the hand-offs still unacknowledged
// (publish.go) and advertises this node's delta digest to each of its
// replicas. A replica that disagrees (or holds nothing) answers with its
// own digest, which schedules the repair stream.
//
//lint:context executor
func (n *Node) antiEntropyTick() {
	n.handOff()
	targets := n.replicaTargets(n.id)
	if len(targets) == 0 {
		return
	}
	adv := appendRepDigest(nil, &repDigestMsg{Owner: n.id, Items: uint32(n.mine.size()), Digest: n.mine.digest})
	for _, t := range targets {
		if t == n.id || n.isDown(t) {
			continue
		}
		n.sendRaw(n.members[t], adv)
	}
}

// onRepDigest handles both directions of the exchange. A digest whose
// Owner is this node is a replica reporting its copy of our region:
// divergence starts (or restarts) a push to that replica. Any other
// Owner is an owner's advert: a matching copy is marked synced, a
// divergent or missing one is reported back so the owner re-streams.
//
//lint:context executor
func (n *Node) onRepDigest(peer uint64, d *repDigestMsg) {
	if d.Owner == n.id {
		if int(d.Items) != n.mine.size() || d.Digest != n.mine.digest {
			n.startPush(peer)
		}
		return
	}
	if d.Owner != peer {
		return // adverts speak only for their sender
	}
	c := n.copies[d.Owner]
	if c == nil && d.Items == 0 && d.Digest == 0 {
		// An owner with no mutations syncs without a stream: reporting
		// back would echo the owner's own (0, 0) digest, which the owner
		// correctly sees as agreement and never pushes — so the copy must
		// be installed right here or the exchange deadlocks with this
		// replica unsynced forever.
		n.copies[d.Owner] = &replicaCopy{delta: newDelta(), synced: true}
		return
	}
	have := repDigestMsg{Owner: d.Owner}
	if c != nil {
		have.Items = uint32(c.size())
		have.Digest = c.digest
	}
	synced := c != nil && have.Items == d.Items && have.Digest == d.Digest
	if c != nil {
		c.synced = synced
	}
	if !synced {
		n.sendRaw(n.members[d.Owner], appendRepDigest(nil, &have))
	}
}

// startPush cuts the delta at its current digest and streams it to one
// replica. An identical stream already in flight is left alone; a stale
// one is replaced.
//
//lint:context executor
func (n *Node) startPush(to uint64) {
	addr := n.members[to]
	if addr == "" || to == n.id || n.isDown(to) {
		return
	}
	if p := n.pushes[to]; p != nil {
		if p.digest == n.mine.digest && p.entries == n.mine.size() {
			return
		}
		p.snd.Stop()
		delete(n.pushes, to)
	}
	// An empty delta still encodes its two counts: every stream has a chunk.
	blob := n.mine.appendTo(nil)
	chunks := (len(blob) + xfer.ChunkBytes - 1) / xfer.ChunkBytes
	n.nextXfer++
	p := &repPush{to: to, addr: addr, transfer: n.nextXfer,
		digest: n.mine.digest, entries: n.mine.size(), chunks: make([][]byte, chunks)}
	for i := range chunks {
		p.chunks[i] = appendRepChunk(nil, &repChunkMsg{Transfer: p.transfer, Seq: uint32(i), Chunks: uint32(chunks),
			Items: uint32(p.entries), Digest: p.digest, Data: blob[i*xfer.ChunkBytes : min(len(blob), (i+1)*xfer.ChunkBytes)]})
	}
	// An idle round resends the unacked chunks, each naming its stream:
	// the receiver acks a duplicate, or a chunk of the stream it
	// installed, without taking it again, so a lost ack costs one
	// redundant chunk, never a stuck stream. A push gives up at once when
	// its target is down.
	p.snd = xfer.NewSender(n.rt, chunks, repPolicy, xfer.Hooks{
		Send: func(seq int, _ bool) { n.sendRaw(p.addr, p.chunks[seq]) },
		Idle: func() bool { return !n.isDown(p.to) },
		Done: func() {
			n.repairsSent.Add(1)
			delete(n.pushes, p.to)
			n.logf("replica push to %016x complete (transfer %d)", p.to, p.transfer)
		},
		GiveUp: func([]int) {
			delete(n.pushes, p.to)
			n.logf("replica push to %016x abandoned (transfer %d)", p.to, p.transfer)
		},
	})
	n.pushes[to] = p
	p.snd.Start()
	n.logf("replica push to %016x: %d items in %d chunks (transfer %d)",
		to, p.entries, len(p.chunks), p.transfer)
}

// onRepAck books one acked chunk. Only the push's target acks it, and
// only for the push's transfer: transfer ids are numbered by each node
// for its own pushes alone.
//
//lint:context executor
func (n *Node) onRepAck(peer uint64, a *repAckMsg) {
	if p := n.pushes[peer]; p != nil && p.transfer == a.Transfer {
		p.snd.Ack(int(a.Seq))
	}
}

// onRepChunk stages one chunk of peer's stream and acks it; a chunk past
// the caps is ignored. Streams are staged by owner, because every owner
// numbers its transfers from 1. Every chunk describes its whole stream,
// so whichever arrives first opens the stage, and one that describes
// another stream replaces it: a newer push, or a restarted owner.
// Duplicates are acked without re-staging; the last missing chunk
// triggers install. The stage outlives its install, so a resent chunk of
// the installed stream — its ack was lost or late — is acked and not
// installed again, which would roll back every fan-out applied to the
// copy since.
//
//lint:context executor
func (n *Node) onRepChunk(peer uint64, c *repChunkMsg) {
	if c.Chunks == 0 || c.Chunks > maxRepChunks || c.Items > maxRepBytes/minRepEntry || c.Seq >= c.Chunks {
		return
	}
	st := n.staging[peer]
	if st == nil || st.transfer != c.Transfer || st.chunks != c.Chunks || st.items != c.Items || st.digest != c.Digest {
		st = &repStage{transfer: c.Transfer, chunks: c.Chunks, items: c.Items, digest: c.Digest,
			data: make([][]byte, c.Chunks), rx: xfer.NewReceiver(int(c.Chunks))}
		n.staging[peer] = st
	}
	if st.rx.Take(int(c.Seq)) {
		if st.bytes += len(c.Data); st.bytes > maxRepBytes {
			delete(n.staging, peer)
			return
		}
		st.data[c.Seq] = c.Data
	}
	n.sendRaw(n.members[peer], appendRepAck(nil, &repAckMsg{Transfer: c.Transfer, Seq: c.Seq}))
	if st.data != nil && st.rx.Complete() {
		n.installStage(peer, st)
	}
}

// installStage decodes owner's complete stream, verifies its end-to-end
// digest, and installs the copy; the stage keeps its description and
// drops its data. A mismatch — torn stream, concurrent mutation at the
// owner, undecodable delta — installs nothing; the next anti-entropy
// exchange repairs it.
//
//lint:context executor
func (n *Node) installStage(owner uint64, st *repStage) {
	blob := slices.Concat(st.data...)
	st.data = nil
	d, err := decodeDelta(blob, n.data)
	if err != nil {
		n.logf("replica stream from %016x: %v", owner, err)
		return
	}
	if d.size() != int(st.items) || d.digest != st.digest {
		n.logf("replica stream from %016x discarded: %d items / %016x, its chunks said %d / %016x",
			owner, d.size(), d.digest, st.items, st.digest)
		return
	}
	n.copies[owner] = &replicaCopy{delta: d, synced: true}
	n.repairsApplied.Add(1)
	n.repairChunksRx.Add(int64(st.chunks))
	n.logf("installed replica copy of %016x: %d items from %d chunks", owner, d.size(), st.chunks)
}

// replicates reports whether this node is one of owner's replicas under
// the current view.
//
//lint:context executor
func (n *Node) replicates(owner uint64) bool {
	return slices.Contains(n.replicaTargets(owner), n.id)
}

// servingCopy returns the copy of owner's region this node may answer
// from, or nil: it must be synced, and this node must still replicate
// owner. A ring that grows moves replica sets; a former holder's copy
// stays internally consistent and says synced, but the owner's adverts
// and fan-out go elsewhere now, so it lacks every later publish and
// still holds every later delete.
//
//lint:context executor
func (n *Node) servingCopy(owner uint64) *replicaCopy {
	if c := n.copies[owner]; c != nil && c.synced && n.replicates(owner) {
		return c
	}
	return nil
}

// dropForeignCopies forgets the copies and the inbound streams of owners
// this node does not replicate (any more) — rebuildView calls it, so a
// copy is not kept, nor counted as synced, past the view change that
// moved its owner's replica set away.
//
//lint:context executor
func (n *Node) dropForeignCopies() {
	for owner := range n.copies {
		if !n.replicates(owner) {
			delete(n.copies, owner)
		}
	}
	for owner := range n.staging {
		if !n.replicates(owner) {
			delete(n.staging, owner)
		}
	}
}

// syncedOwners counts the owners whose regions this node could answer
// for right now.
//
//lint:context executor
func (n *Node) syncedOwners() int {
	cnt := 0
	for owner := range n.copies {
		if n.servingCopy(owner) != nil {
			cnt++
		}
	}
	return cnt
}
