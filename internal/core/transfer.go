package core

import (
	"time"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/lph"
	"landmarkdht/internal/runtime"
	"landmarkdht/internal/wire"
)

// Streaming bulk region transfer (DESIGN.md §14): join/leave handoff,
// load migration and replica repair ship whole serialized regions as
// chunked, credit-acked streams instead of republishing entry-at-a-time
// (one reliable round-trip per object). A stream serializes its region
// with the region codec, packs entries greedily into chunks of about
// transferChunkBytes, and keeps at most transferWindow chunks in
// flight; every chunk is individually acknowledged, returning
// its credit, and a chunk whose ack does not arrive in time is
// retransmitted to the current successor of the destination's ring
// position — the stream resumes at chunk granularity, it never
// restarts. A chunk that exhausts its retries (or whose sender dies)
// falls back to oracle reinsertion so migration can degrade to the old
// teleport behavior but never silently lose entries.
//
// The receiver applies each chunk exactly once (duplicates from
// premature retransmission are dropped by sequence number): entries
// whose key the receiver now owns are stored locally; entries still
// owned by the *sender* are stored locally too — that is the leave
// handoff, where ownership arrives with the sender's departure; and
// entries owned by some third node (membership drifted mid-stream) are
// rerouted to that owner.

const (
	// transferChunkBytes is the target chunk payload size. Far below
	// wire.MaxChunkData: small enough to interleave with query traffic,
	// large enough that per-chunk overhead is negligible.
	transferChunkBytes = 8 << 10
	// transferWindow is the credit window: chunks in flight before the
	// first unacknowledged one stalls the stream.
	transferWindow = 4
	// transferMaxRetries bounds per-chunk retransmissions when the
	// reliability layer is not configured.
	transferMaxRetries = 3
)

// TransferStats accounts bulk region streams against the point-wise
// republication they replaced. The point-wise counters are the
// counterfactual cost of the same entries shipped one reliable
// round-trip each, priced with the same codec and packet overhead —
// the saving is therefore measured, not assumed.
type TransferStats struct {
	// Transfers counts completed streams; Chunks their first-shipment
	// chunk count; Retransmits the chunks shipped again on timeout.
	Transfers   int
	Chunks      int
	Retransmits int
	// BulkMessages/BulkBytes are the messages and bytes the streams
	// actually sent (chunks + acks, including retransmissions).
	BulkMessages int
	BulkBytes    int
	// PointwiseMessages/PointwiseBytes are what the same regions would
	// have cost entry-at-a-time (entry message + ack per entry).
	PointwiseMessages int
	PointwiseBytes    int
	// FallbackEntries counts entries that abandoned the stream and were
	// oracle-reinserted (retries exhausted, sender died mid-stream).
	FallbackEntries int
}

// MessagesSaved returns the message saving over point-wise
// republication; BytesSaved the byte saving.
func (ts TransferStats) MessagesSaved() int { return ts.PointwiseMessages - ts.BulkMessages }
func (ts TransferStats) BytesSaved() int    { return ts.PointwiseBytes - ts.BulkBytes }

// TransferStats returns the system's bulk-transfer accounting.
func (s *System) TransferStats() TransferStats { return s.transfers }

// transferChunk is one sequenced piece of an outgoing stream.
type transferChunk struct {
	payload []byte // encoded wire.RegionChunk
	keys    []lph.Key
	entries []Entry
	acked   bool
}

// outTransfer is the sender-side state of one stream.
type outTransfer struct {
	id     uint64
	index  string
	src    *chord.Node
	dst    chord.ID
	chunks []transferChunk
	next   int // next chunk to ship
	flight int // chunks in flight (credit used)
	acked  int
	done   func()
	ended  bool
}

// transferBytesPerSec is the bandwidth assumed for region transfers,
// 1 MiB/s: it decides how long migrated entries are in flight, and
// queries during that window can miss them.
const transferBytesPerSec = 1 << 20

// serializationDelay models pushing n bytes through that bandwidth.
func (s *System) serializationDelay(bytes int) time.Duration {
	return time.Duration(float64(time.Second) * float64(bytes) / transferBytesPerSec)
}

// accountPointwise adds the counterfactual point-wise cost of a region
// to the stats: per entry, one message carrying that entry alone (same
// chunk framing, same packet header) plus one acknowledgement.
func (s *System) accountPointwise(index string, entries []Entry) {
	for i := range entries {
		s.transfers.PointwiseMessages += 2
		s.transfers.PointwiseBytes += wire.PacketHeader + wire.ChunkHeaderBytes + len(index) + EncodedEntrySize(entries[i])
		s.transfers.PointwiseBytes += wire.PacketHeader + wire.AckBytes
	}
}

// buildChunks serializes a region into greedy chunks of about
// transferChunkBytes (at least one entry per chunk).
func (s *System) buildChunks(id uint64, index string, keys []lph.Key, entries []Entry) []transferChunk {
	var chunks []transferChunk
	start := 0
	size := 0
	flush := func(end int, last bool) {
		if end == start {
			return
		}
		ck := keys[start:end:end]
		ce := entries[start:end:end]
		wc := wire.RegionChunk{
			Transfer: id,
			Index:    index,
			Seq:      uint32(len(chunks)),
			Last:     last,
			Data:     AppendRegion(make([]byte, 0, size), ck, ce),
		}
		payload, err := wire.AppendChunk(nil, &wc)
		if err != nil {
			// Unreachable by construction: target << MaxChunkData and
			// single entries are tiny. Degrade to an empty payload with
			// honest size accounting rather than dropping entries.
			payload = make([]byte, wc.EncodedSize())
		}
		chunks = append(chunks, transferChunk{payload: payload, keys: ck, entries: ce})
		start, size = end, 0
	}
	for i := range entries {
		esz := EncodedEntrySize(entries[i])
		if size > 0 && size+esz > transferChunkBytes {
			flush(i, false)
		}
		size += esz
	}
	flush(len(entries), true)
	return chunks
}

// streamRegion ships one index region from a live sender to the node
// at ring position dst as a chunked, credit-acked stream. done
// (optional) runs on the protocol executor once every chunk has been
// acknowledged or fallen back. Entries are never lost: any chunk the
// stream cannot deliver is oracle-reinserted.
func (s *System) streamRegion(src *IndexNode, dst chord.ID, index string, keys []lph.Key, entries []Entry, done func()) {
	if len(entries) == 0 {
		if done != nil {
			done()
		}
		return
	}
	s.nextTransfer++
	tr := &outTransfer{
		id:     s.nextTransfer,
		index:  index,
		src:    src.node,
		dst:    dst,
		chunks: s.buildChunks(s.nextTransfer, index, keys, entries),
		done:   done,
	}
	s.accountPointwise(index, entries)
	s.pumpTransfer(tr)
}

// pumpTransfer ships chunks while credit remains.
func (s *System) pumpTransfer(tr *outTransfer) {
	for !tr.ended && tr.flight < transferWindow && tr.next < len(tr.chunks) {
		i := tr.next
		tr.next++
		tr.flight++
		s.transfers.Chunks++
		s.shipChunk(tr, i, 0)
	}
}

// shipChunk transmits one chunk (serialization delay, then the network
// message) and arms its retransmission timer.
func (s *System) shipChunk(tr *outTransfer, i, attempt int) {
	ch := &tr.chunks[i]
	s.rt.Schedule(s.serializationDelay(len(ch.payload)), func() {
		if tr.ended || ch.acked {
			return
		}
		if !tr.src.Alive() {
			// The sender died mid-stream: its un-acked state dies with
			// it. Oracle-reinsert everything unfinished so migration
			// degrades to teleporting rather than losing entries.
			s.abandonTransfer(tr)
			return
		}
		if attempt > 0 {
			s.transfers.Retransmits++
		}
		bytes := wire.PacketHeader + len(ch.payload)
		s.transfers.BulkMessages++
		s.transfers.BulkBytes += bytes
		timer := s.rt.AfterFunc(s.transferTimeout(attempt), func() {
			if tr.ended || ch.acked {
				return
			}
			if attempt >= s.transferRetries() {
				// This chunk is undeliverable; reinsert its entries and
				// treat it as settled so the stream can finish.
				s.transfers.FallbackEntries += len(ch.entries)
				s.reinsert(tr.index, ch.keys, ch.entries)
				s.settleChunk(tr, ch)
				return
			}
			// Retarget the stream at whoever now covers the
			// destination's ring position (the destination itself while
			// it lives, its successor after a crash).
			if cur, err := s.net.SuccessorID(tr.dst); err == nil {
				tr.dst = cur
			}
			s.shipChunk(tr, i, attempt+1)
		})
		s.net.SendOrFail(tr.src, tr.dst, chord.KindTransfer, bytes, func(dstNode *chord.Node) {
			s.deliverChunk(tr, dstNode, i, timer)
		}, nil)
	})
}

// deliverChunk is the receiver side: apply the chunk once, acknowledge
// it, and let the sender's credit window advance.
func (s *System) deliverChunk(tr *outTransfer, dstNode *chord.Node, i int, timer runtime.Timer) {
	ch := &tr.chunks[i]
	keys, entries := ch.keys, ch.entries
	if s.cfg.EncodeWire {
		// Round-trip through the real codec: what the receiver applies
		// is what was actually on the wire.
		wc, err := wire.DecodeChunk(tr.chunks[i].payload[:])
		if err == nil {
			keys, entries = nil, nil
			keys, entries, err = DecodeRegion(wc.Data, keys, entries)
		}
		if err != nil {
			// A corrupt chunk never reaches the store; the sender's
			// timer will retransmit it.
			return
		}
	}
	if s.rxApplied == nil {
		s.rxApplied = make(map[uint64]map[uint32]bool)
	}
	applied := s.rxApplied[tr.id]
	if applied == nil {
		applied = make(map[uint32]bool)
		s.rxApplied[tr.id] = applied
	}
	if !applied[uint32(i)] {
		applied[uint32(i)] = true
		s.applyChunk(tr, dstNode, keys, entries)
	}
	// Acknowledge even duplicates: the first ack may have been lost.
	ackBytes := wire.PacketHeader + wire.AckBytes
	s.transfers.BulkMessages++
	s.transfers.BulkBytes += ackBytes
	s.net.SendOrFail(dstNode, tr.src.ID(), chord.KindAck, ackBytes, func(*chord.Node) {
		if tr.ended || ch.acked {
			return
		}
		timer.Stop()
		s.settleChunk(tr, ch)
	}, nil)
}

// applyChunk stores a delivered chunk's entries: locally when the
// receiver owns the key or the sender still does (leave handoff —
// ownership follows the sender's departure), rerouted to the current
// owner when membership drifted mid-stream.
func (s *System) applyChunk(tr *outTransfer, dstNode *chord.Node, keys []lph.Key, entries []Entry) {
	rx := s.nodes[dstNode.ID()]
	if rx == nil {
		s.reinsert(tr.index, keys, entries)
		return
	}
	keeps := func(key lph.Key) bool {
		if dstNode.OwnsKey(key) {
			return true
		}
		owner, err := s.net.SuccessorID(key)
		return err == nil && owner == tr.src.ID()
	}
	// What the receiver keeps goes to its store a run at a time — as a
	// rule the whole chunk — so the store's columns grow per chunk, not
	// per entry.
	for i := 0; i < len(keys); {
		j := i
		for j < len(keys) && keeps(keys[j]) {
			j++
		}
		if j == i {
			s.reinsert(tr.index, keys[i:i+1], entries[i:i+1])
			i++
			continue
		}
		s.noteStoreErr(rx.st.PutBatch(tr.index, keys[i:j], entries[i:j]))
		i = j
	}
}

// settleChunk marks a chunk finished (acked or fallen back) and
// finishes the stream when it was the last one.
func (s *System) settleChunk(tr *outTransfer, ch *transferChunk) {
	if ch.acked {
		return
	}
	ch.acked = true
	tr.flight--
	tr.acked++
	if tr.acked == len(tr.chunks) {
		s.finishTransfer(tr)
		return
	}
	s.pumpTransfer(tr)
}

// abandonTransfer oracle-reinserts every unfinished chunk of a stream
// whose sender died and finishes it.
func (s *System) abandonTransfer(tr *outTransfer) {
	if tr.ended {
		return
	}
	for i := range tr.chunks {
		ch := &tr.chunks[i]
		if ch.acked {
			continue
		}
		s.transfers.FallbackEntries += len(ch.entries)
		s.reinsert(tr.index, ch.keys, ch.entries)
		ch.acked = true
	}
	s.finishTransfer(tr)
}

// finishTransfer completes a stream: clears receiver dedup state and
// runs the completion callback.
func (s *System) finishTransfer(tr *outTransfer) {
	if tr.ended {
		return
	}
	tr.ended = true
	delete(s.rxApplied, tr.id)
	s.transfers.Transfers++
	if tr.done != nil {
		tr.done()
	}
}

// transferTimeout returns the per-chunk retransmission timeout for an
// attempt, borrowing the reliability layer's configuration when it is
// enabled.
func (s *System) transferTimeout(attempt int) time.Duration {
	if s.cfg.Retry.Enabled() {
		return s.retryTimeout(attempt)
	}
	d := float64(time.Second)
	for i := 0; i < attempt; i++ {
		d *= 2
	}
	return time.Duration(d)
}

// transferRetries bounds per-chunk retransmissions.
func (s *System) transferRetries() int {
	if s.cfg.Retry.Enabled() {
		return s.cfg.Retry.MaxRetries
	}
	return transferMaxRetries
}

// accountBulk charges a region handed over without an in-flight stream
// (synchronous split handover, replica repair's placement rebuild) as
// if it had been streamed: chunked messages plus acks, against the
// point-wise counterfactual. Returns the modeled stream bytes.
func (s *System) accountBulk(index string, keys []lph.Key, entries []Entry) int {
	if len(entries) == 0 {
		return 0
	}
	s.accountPointwise(index, entries)
	chunkBytes, size, msgs, total := 0, 0, 0, 0
	flushOverhead := wire.PacketHeader + wire.ChunkHeaderBytes + len(index)
	flush := func() {
		if size == 0 {
			return
		}
		msgs += 2 // chunk + ack
		total += flushOverhead + size + wire.PacketHeader + wire.AckBytes
		chunkBytes += flushOverhead + size
		size = 0
	}
	for i := range entries {
		esz := EncodedEntrySize(entries[i])
		if size > 0 && size+esz > transferChunkBytes {
			flush()
		}
		size += esz
	}
	flush()
	s.transfers.Chunks += msgs / 2
	s.transfers.BulkMessages += msgs
	s.transfers.BulkBytes += total
	s.net.RecordTraffic(chord.KindTransfer, chunkBytes)
	s.net.RecordTraffic(chord.KindAck, total-chunkBytes)
	return total
}
