package netrt

import (
	"fmt"
	"net"
	"time"

	"landmarkdht/internal/wire"
)

// serveConn handles one accepted connection. The first frame
// identifies the peer: a Hello starts a node link, a client hello
// starts a client session, anything else (including a hostile stream —
// wire.ReadFrame's typed errors) drops the connection.
func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	if err := conn.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		closeConn(conn)
		return
	}
	id, payload, _, err := wire.ReadFrame(conn, nil)
	if err != nil {
		closeConn(conn)
		return
	}
	kind, body, err := splitMsg(payload)
	if err != nil {
		closeConn(conn)
		return
	}
	switch kind {
	case kindHello:
		n.acceptPeer(conn, body)
	case kindClientHello:
		// An empty body is a client from before the handshake carried a
		// version: it stays version 0.
		var h clientWelcomeMsg
		if len(body) > 0 && decodeBody(body, &h) != nil {
			closeConn(conn)
			return
		}
		w := clientWelcomeMsg{ID: n.id, Addr: n.addr, Version: protoVersion}
		if h.Version != protoVersion {
			// Refuse at the handshake, with this node's version in the
			// body: past it the client's first binary frame would be
			// misread, and it would learn only that the connection died.
			_ = writeFrame(conn, id, kindReject, w) //lint:allow errdrop courtesy reject on a connection being dropped; failure changes nothing
			n.logf("rejected client %s: it speaks protocol version %d, this node %d", conn.RemoteAddr(), h.Version, protoVersion)
			closeConn(conn)
			return
		}
		if writeFrame(conn, id, kindClientWelcome, w) != nil {
			closeConn(conn)
			return
		}
		if conn.SetDeadline(time.Time{}) != nil {
			closeConn(conn)
			return
		}
		n.serveClient(conn)
	default:
		closeConn(conn)
	}
}

// acceptPeer completes the listener side of the peer handshake and
// attaches the connection to the peer's link.
func (n *Node) acceptPeer(conn net.Conn, body []byte) {
	var h helloMsg
	if decodeBody(body, &h) != nil || h.Addr == "" {
		closeConn(conn)
		return
	}
	if h.Sig != n.sig {
		// Refuse explicitly so the dialer logs the real cause instead
		// of a silent disconnect, then drop: a node built from a
		// different seed can never agree on ownership, and one speaking
		// another protocol version would misread query frames.
		_ = writeFrame(conn, 1, kindReject, nil) //lint:allow errdrop courtesy reject on a connection being dropped; failure changes nothing
		n.logf("rejected %s: corpus or protocol version mismatch", h.Addr)
		closeConn(conn)
		return
	}
	if writeFrame(conn, 1, kindWelcome, helloMsg{From: n.id, Addr: n.addr, Sig: n.sig, Members: n.snapshot()}) != nil {
		closeConn(conn)
		return
	}
	if conn.SetDeadline(time.Time{}) != nil {
		closeConn(conn)
		return
	}
	members := h.Members
	n.rt.Schedule(0, func() {
		n.addMember(h.From, h.Addr)
		n.mergeMembers(members)
	})
	n.logf("link up from %s (node %016x, accepted)", h.Addr, h.From)
	l := n.ensureLink(h.Addr)
	if l == nil {
		closeConn(conn)
		return
	}
	l.attach(conn, h.From, h.From)
}

// closeConn is best-effort teardown of a connection that is already
// being abandoned: the interesting error (handshake failure, hostile
// stream, write timeout) has already been observed upstream, and a
// Close error on a dying connection carries no further signal.
func closeConn(conn net.Conn) {
	_ = conn.Close() //lint:allow errdrop best-effort teardown of an abandoned conn
}

// writeFrame gob-encodes and writes one framed handshake message.
func writeFrame(conn net.Conn, id uint64, kind byte, msg any) error {
	payload, err := encodeMsg(kind, msg)
	if err != nil {
		return err
	}
	frame, err := wire.AppendFrame(nil, id, payload)
	if err != nil {
		return err
	}
	_, err = conn.Write(frame)
	return err
}

// serveClient runs one client session: queries and info requests,
// each answered with the request's frame id so the client can
// correlate concurrent calls. Replies flow through a bounded channel
// drained by a writer goroutine, so a stalled client never blocks the
// protocol executor — it gets disconnected instead.
func (n *Node) serveClient(conn net.Conn) {
	n.clientMu.Lock()
	if n.clients == nil {
		n.clientMu.Unlock()
		closeConn(conn)
		return
	}
	n.clients[conn] = struct{}{}
	n.clientMu.Unlock()
	done := make(chan struct{})
	defer func() {
		close(done)
		n.clientMu.Lock()
		if n.clients != nil {
			delete(n.clients, conn)
		}
		n.clientMu.Unlock()
		closeConn(conn)
	}()
	out := make(chan []byte, 64)
	go func() {
		for {
			select {
			case frame := <-out:
				if _, err := conn.Write(frame); err != nil {
					closeConn(conn)
					return
				}
			case <-done:
				return
			}
		}
	}()
	reply := func(id uint64, payload []byte) {
		frame, err := wire.AppendFrame(nil, id, payload)
		if err != nil {
			n.logf("client %s: reply %d of kind %d not sent: %v", conn.RemoteAddr(), id, payload[0], err)
			return
		}
		select {
		case out <- frame:
		default:
			closeConn(conn) // client too slow to read its own replies
		}
	}
	var buf []byte
	for {
		id, payload, next, err := wire.ReadFrame(conn, buf)
		if err != nil {
			return
		}
		buf = next
		kind, body, err := splitMsg(payload)
		if err != nil {
			return
		}
		switch kind {
		case kindClientQuery:
			cq, err := decodeClientQuery(body)
			if err != nil {
				return
			}
			reqID := id
			n.rt.Schedule(0, func() {
				n.startQuery(cq.QObj, cq.R, func(out QueryOutcome, err error) {
					msg := clientResultMsg{Complete: out.Complete, Dropped: out.Dropped, Entries: out.Entries}
					if err != nil {
						msg.Err = err.Error()
					}
					enc := appendClientResult(nil, &msg)
					if len(enc) > wire.MaxFramePayload {
						// Say so: a reply that cannot be framed would
						// otherwise leave the client waiting for nothing.
						enc = appendClientResult(nil, &clientResultMsg{Err: fmt.Sprintf(
							"answer of %d entries does not fit one %d-byte frame", len(out.Entries), wire.MaxFramePayload)})
					}
					reply(reqID, enc)
				})
			})
		case kindClientInfo:
			reqID := id
			n.rt.Schedule(0, func() {
				enc, err := encodeMsg(kindClientInfoR, Info{
					ID: n.id, Addr: n.addr, Members: n.snapshot(), Store: n.ownedBoot(),
					Recovered: n.recovered, Replayed: n.replayed,
					Replicas: n.cfg.Replicas, Down: n.downMembers(),
					SyncedOwners: n.syncedOwners(), Extras: len(n.extras),
					Tested: n.tested, Refined: n.refined,
					Repairs: n.repairsApplied.Load(), RepairChunks: n.repairChunksRx.Load(),
				})
				if err != nil {
					n.logf("client %s: info reply %d not sent: %v", conn.RemoteAddr(), reqID, err)
					return
				}
				reply(reqID, enc)
			})
		case kindClientPublish, kindClientDelete:
			cm, err := decodeClientMut(body)
			if err != nil {
				return
			}
			reqID, del := id, kind == kindClientDelete
			n.rt.Schedule(0, func() {
				n.startMutation(cm.ID, cm.Obj, del, func(err error) {
					var msg clientMutRMsg
					if err != nil {
						msg.Err = err.Error()
					}
					reply(reqID, appendClientMutR(nil, &msg))
				})
			})
		default:
			return
		}
	}
}
