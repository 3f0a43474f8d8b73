package netrt

import (
	"bufio"
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
		w := clientWelcomeMsg{Version: protoVersion, Addr: n.addr}
		if v := bodyVersion(body); v != protoVersion {
			// Refuse at the handshake, with this node's version in the
			// body: past it the client's first frame would be misread,
			// and it would learn only that the connection died.
			_ = writePayload(conn, id, appendClientWelcome(nil, kindReject, &w)) //lint:allow errdrop courtesy reject on a connection being dropped; failure changes nothing
			n.logf("rejected client %s: it speaks protocol version %d, this node %d", conn.RemoteAddr(), v, protoVersion)
			closeConn(conn)
			return
		}
		_, err := decodeClientWelcome(body)
		if err != nil || writePayload(conn, id, appendClientWelcome(nil, kindClientWelcome, &w)) != nil ||
			conn.SetDeadline(time.Time{}) != nil {
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
	// refuse says why before it drops the connection, so the dialer logs
	// the real cause instead of a silent disconnect: a node speaking
	// another protocol version would misread every frame, and one built
	// from a different seed can never agree on ownership.
	refuse := func(format string, args ...any) {
		reject := helloMsg{Version: protoVersion, Sig: n.sig, Self: memberAt(n.addr)}
		_ = writePayload(conn, 1, appendHello(nil, kindReject, &reject)) //lint:allow errdrop courtesy reject on a connection being dropped; failure changes nothing
		n.logf("rejected "+format, args...)
		closeConn(conn)
	}
	if v := bodyVersion(body); v != protoVersion {
		refuse("%s: it speaks protocol version %d, this node %d", conn.RemoteAddr(), v, protoVersion)
		return
	}
	h, err := decodeHello(body)
	if err != nil || h.Self.Addr == "" {
		closeConn(conn)
		return
	}
	if h.Sig != n.sig {
		refuse("%s: corpus mismatch: it signs %016x, this node %016x", h.Self.Addr, h.Sig, n.sig)
		return
	}
	welcome := helloMsg{Version: protoVersion, Sig: n.sig, Self: memberAt(n.addr), Members: n.snapshot()}
	if writePayload(conn, 1, appendHello(nil, kindWelcome, &welcome)) != nil || conn.SetDeadline(time.Time{}) != nil {
		closeConn(conn)
		return
	}
	n.rt.Schedule(0, func() {
		n.addMember(h.Self.ID, h.Self.Addr)
		n.mergeMembers(h.Members)
	})
	n.logf("link up from %s (node %016x, accepted)", h.Self.Addr, h.Self.ID)
	l := n.ensureLink(h.Self.Addr)
	if l == nil {
		closeConn(conn)
		return
	}
	l.attach(conn, h.Self.ID, h.Self.ID)
}

// closeConn is best-effort teardown of a connection that is already
// being abandoned: the interesting error (handshake failure, hostile
// stream, write timeout) has already been observed upstream, and a
// Close error on a dying connection carries no further signal.
func closeConn(conn net.Conn) {
	_ = conn.Close() //lint:allow errdrop best-effort teardown of an abandoned conn
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
	// Buffered like a link's reader (link.readLoop); serveConn read the
	// hello frame, and nothing past it, straight off conn.
	r := bufio.NewReader(conn)
	var buf []byte
	for {
		id, payload, next, err := wire.ReadFrame(r, buf)
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
				reply(reqID, appendInfo(nil, &Info{
					ID: n.id, Addr: n.addr, Members: n.snapshot(), Store: n.ownedBoot(),
					Recovered: n.recovered, Replayed: n.replayed,
					Replicas: n.cfg.Replicas, Down: n.downMembers(),
					SyncedOwners: n.syncedOwners(), Extras: len(n.mine.extras),
					Tested: n.tested, Refined: n.refined,
					Repairs: n.repairsApplied.Load(), RepairChunks: n.repairChunksRx.Load(),
				}))
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
