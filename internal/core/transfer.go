package core

import (
	"time"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/lph"
	"landmarkdht/internal/wire"
	"landmarkdht/internal/xfer"
)

// Streaming bulk region transfer (DESIGN.md §14.3): handoff, load
// migration and replica repair ship whole serialized regions as
// xfer streams instead of republishing entry-at-a-time. On top of the
// engine core adds the serialization delay before each chunk leaves,
// applying a chunk as it lands, and its idle hook, which retargets the
// current successor of the destination's ring position (the stream
// resumes at chunk granularity) and checks the sender is alive. A
// stream the engine gives up on falls back to oracle reinsertion of the
// chunks the receiver never took: entries are never lost or duplicated.
//
// The receiver stores entries whose key it owns, and entries the
// *sender* still owns — the leave handoff, where ownership arrives with
// the sender's departure; entries owned by a third node (membership
// drifted mid-stream) are rerouted to that owner.

// transferPolicy resends an idle stream's unacked chunks every second,
// and gives up after 15 such rounds without an acknowledgement.
var transferPolicy = xfer.Policy{Idle: time.Second, Rounds: 15}

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

// TransferStats returns the system's bulk-transfer accounting.
func (s *System) TransferStats() TransferStats { return s.transfers }

// transferChunk is one sequenced piece of an outgoing stream, and the
// record its messages carry: the chunk, and its acknowledgement back.
type transferChunk struct {
	tr      *outTransfer
	seq     int    // the chunk's index in tr.chunks
	payload []byte // encoded wire.RegionChunk
	keys    []lph.Key
	entries []Entry
}

// outTransfer is one stream: the sender's engine and chunks, and the
// receiver's record of the chunks it took.
type outTransfer struct {
	sys    *System
	index  string
	src    *chord.Node
	dst    chord.ID
	chunks []transferChunk
	snd    *xfer.Sender
	rx     xfer.Receiver
	done   func()
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

// packChunks cuts a region greedily into runs of about xfer.ChunkBytes
// encoded bytes, at least one entry each, and hands emit each run's
// bounds and encoded size. entries must not be empty.
func packChunks(entries []Entry, emit func(start, end, size int)) {
	start, size := 0, 0
	for i := range entries {
		esz := EncodedEntrySize(entries[i])
		if size > 0 && size+esz > xfer.ChunkBytes {
			emit(start, i, size)
			start, size = i, 0
		}
		size += esz
	}
	emit(start, len(entries), size)
}

// buildChunks serializes a region into its stream's chunks.
func (s *System) buildChunks(id uint64, index string, keys []lph.Key, entries []Entry) []transferChunk {
	var chunks []transferChunk
	packChunks(entries, func(start, end, size int) {
		ck, ce := keys[start:end:end], entries[start:end:end]
		wc := wire.RegionChunk{
			Transfer: id,
			Index:    index,
			Seq:      uint32(len(chunks)),
			Last:     end == len(entries),
			Data:     AppendRegion(make([]byte, 0, size), ck, ce),
		}
		payload, err := wire.AppendChunk(nil, &wc)
		if err != nil {
			// Unreachable by construction: target << wire.MaxFramePayload and
			// single entries are tiny. Degrade to an empty payload with
			// honest size accounting rather than dropping entries.
			payload = make([]byte, wc.EncodedSize())
		}
		chunks = append(chunks, transferChunk{payload: payload, keys: ck, entries: ce})
	})
	return chunks
}

// streamRegion ships one index region from a live sender to the node
// at ring position dst as a chunked, acknowledged stream. done
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
		sys:    s,
		index:  index,
		src:    src.node,
		dst:    dst,
		chunks: s.buildChunks(s.nextTransfer, index, keys, entries),
		done:   done,
	}
	for i := range tr.chunks {
		tr.chunks[i].tr, tr.chunks[i].seq = tr, i
	}
	tr.rx = xfer.NewReceiver(len(tr.chunks))
	tr.snd = xfer.NewSender(s.rt, len(tr.chunks), transferPolicy, xfer.Hooks{
		Send: func(i int, resend bool) { s.shipChunk(tr, i, resend) },
		Idle: func() bool {
			// Retarget the stream at whoever now covers the
			// destination's ring position (the destination itself while
			// it lives, its successor after a crash).
			if cur, err := s.net.SuccessorID(tr.dst); err == nil {
				tr.dst = cur
			}
			return tr.src.Alive()
		},
		Done:   func() { s.finishTransfer(tr) },
		GiveUp: func(unacked []int) { s.fallBack(tr, unacked) },
	})
	s.accountPointwise(index, entries)
	tr.snd.Start()
}

// shipChunk transmits one chunk: the serialization delay, then the
// network message (shipDue).
func (s *System) shipChunk(tr *outTransfer, i int, resend bool) {
	due := shipDue
	if resend {
		due = reshipDue
	} else {
		s.transfers.Chunks++
	}
	ch := &tr.chunks[i]
	s.rt.ScheduleArg(s.serializationDelay(len(ch.payload)), due, ch)
}

func shipDue(arg any)   { arg.(*transferChunk).ship(false) }
func reshipDue(arg any) { arg.(*transferChunk).ship(true) }

// ship sends a serialized chunk unless the stream no longer needs it.
func (ch *transferChunk) ship(resend bool) {
	tr := ch.tr
	s := tr.sys
	if tr.snd.Ended() || tr.snd.Acked(ch.seq) {
		return
	}
	if !tr.src.Alive() {
		// The sender died mid-stream: its un-acked state dies with
		// it, and what the receiver never took is reinserted.
		tr.snd.GiveUp()
		return
	}
	if resend {
		s.transfers.Retransmits++
	}
	bytes := wire.PacketHeader + len(ch.payload)
	s.transfers.BulkMessages++
	s.transfers.BulkBytes += bytes
	s.net.SendRecord(tr.src, tr.dst, chord.KindTransfer, bytes, &s.handlers.chunk, ch)
}

// recvChunk is the receiver side: apply the chunk once and acknowledge
// it, so the sender's window moves on.
func recvChunk(dstNode *chord.Node, arg any) {
	ch := arg.(*transferChunk)
	tr := ch.tr
	s := tr.sys
	keys, entries := ch.keys, ch.entries
	if s.cfg.EncodeWire {
		// Round-trip through the real codec: what the receiver applies
		// is what was actually on the wire.
		wc, err := wire.DecodeChunk(ch.payload)
		if err == nil {
			keys, entries, err = DecodeRegion(wc.Data, nil, nil)
		}
		if err != nil {
			// A corrupt chunk never reaches the store; the sender's
			// idle round will send it again.
			return
		}
	}
	if tr.rx.Take(ch.seq) {
		s.applyChunk(tr, dstNode, keys, entries)
	}
	// Acknowledge even duplicates: the first ack may have been lost.
	ackBytes := wire.PacketHeader + wire.AckBytes
	s.transfers.BulkMessages++
	s.transfers.BulkBytes += ackBytes
	s.net.SendRecord(dstNode, tr.src.ID(), chord.KindAck, ackBytes, &s.handlers.chunkAck, ch)
}

// recvChunkAck moves the sender's window past an acknowledged chunk.
func recvChunkAck(_ *chord.Node, arg any) {
	ch := arg.(*transferChunk)
	ch.tr.snd.Ack(ch.seq)
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

// fallBack finishes a stream the engine gave up on: every chunk the
// receiver has not taken is oracle-reinserted, and taking it here means
// a copy still on the wire is dropped when it lands.
func (s *System) fallBack(tr *outTransfer, unacked []int) {
	for _, i := range unacked {
		if !tr.rx.Take(i) {
			continue // applied; only its ack was lost
		}
		ch := &tr.chunks[i]
		s.transfers.FallbackEntries += len(ch.entries)
		s.reinsert(tr.index, ch.keys, ch.entries)
	}
	s.finishTransfer(tr)
}

// finishTransfer completes a stream and runs its completion callback.
func (s *System) finishTransfer(tr *outTransfer) {
	s.transfers.Transfers++
	if tr.done != nil {
		tr.done()
	}
}

// accountBulk charges a region handed over without an in-flight stream
// (replica repair's placement rebuild) as if it had been streamed:
// chunked messages plus acks, against the point-wise counterfactual.
func (s *System) accountBulk(index string, entries []Entry) {
	if len(entries) == 0 {
		return
	}
	s.accountPointwise(index, entries)
	chunks, chunkBytes := 0, 0
	packChunks(entries, func(_, _, size int) {
		chunks++
		chunkBytes += wire.PacketHeader + wire.ChunkHeaderBytes + len(index) + size
	})
	ackBytes := chunks * (wire.PacketHeader + wire.AckBytes)
	s.transfers.Chunks += chunks
	s.transfers.BulkMessages += 2 * chunks
	s.transfers.BulkBytes += chunkBytes + ackBytes
	s.net.RecordTraffic(chord.KindTransfer, chunkBytes)
	s.net.RecordTraffic(chord.KindAck, ackBytes)
}
