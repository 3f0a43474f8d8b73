package netrt

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"landmarkdht/internal/runtime"
	"landmarkdht/internal/wire"
)

// Link-layer tuning. Backoff is exponential with multiplicative jitter
// drawn from the link's seeded source: attempt n sleeps
// backoffBase·2ⁿ (capped at backoffCap), scaled by a uniform factor in
// [0.5, 1.5).
const (
	backoffBase      = 50 * time.Millisecond
	backoffCap       = 2 * time.Second
	dialTimeout      = 2 * time.Second
	handshakeTimeout = 3 * time.Second
	// linkQueueBound bounds a node's outbound frame queue per link. A
	// full queue sheds the newest frame (counted, never blocking the
	// protocol executor); the query layer's credit accounting turns the
	// loss into an honest incomplete result.
	linkQueueBound = 256
)

// linkHost is what a link needs from its owning node. It is an
// interface so the link layer is testable against a bare harness.
type linkHost interface {
	// selfID is the host's own node ID (the connection tie-break
	// compares dialer IDs).
	selfID() uint64
	// dialPeer dials addr and completes the peer handshake, returning
	// the connection and the remote's node ID.
	dialPeer(addr string) (net.Conn, uint64, error)
	// handleFrame processes one peer frame. body is only valid for the
	// duration of the call (the reader reuses its buffer) — hosts decode
	// it there and then. A non-nil error proves the peer hostile (a
	// decoder's typed wire.FrameError) and drops the link.
	handleFrame(peer uint64, kind byte, body []byte) error
	// nextFrameID returns a fresh frame id.
	nextFrameID() uint64
	// linkFaults builds the transport-fault hook for a peer's reader
	// (nil to inject nothing).
	linkFaults(peer uint64) *runtime.LinkFaults
	// linkSeed seeds a link's backoff-jitter source.
	linkSeed(addr string) int64
	// countFault records an injected transport fault ("drop"/"kill").
	countFault(kind string)
	// maxQueue is the outbound queue bound.
	maxQueue() int
	// logf receives one line per frame the link refuses to write.
	logf(format string, args ...any)
}

// link owns all traffic to one peer address: a bounded outbound queue,
// the single active connection for the peer pair, and the writer
// goroutine that dials on demand and reconnects with seeded backoff.
//
// Lifecycle: idle (no conn, empty queue) → dialing (queue non-empty,
// no conn; exponential backoff between attempts) → connected (writer
// drains the queue; a reader goroutine serves inbound frames) → back
// to dialing on connection loss with frames still queued, or to idle.
// An inbound connection attaches directly, skipping the dial; when
// both sides hold a connection for the same pair, the one dialed by
// the smaller node ID wins on both sides.
type link struct {
	host linkHost
	addr string

	mu         sync.Mutex
	cond       *sync.Cond
	queue      [][]byte // encoded frame payloads awaiting write
	conn       net.Conn // single active connection, nil while down
	connDialer uint64   // node ID of the side that dialed conn
	peer       uint64   // remote node ID (valid while conn != nil)
	closed     bool
	done       chan struct{}

	shed    atomic.Int64 // frames shed: the queue was full, or the payload over wire.MaxFramePayload
	redials atomic.Int64 // failed dial attempts
	sent    atomic.Int64 // frames written

	rng *rand.Rand // backoff jitter; writer goroutine only
}

func newLink(host linkHost, addr string) *link {
	l := &link{
		host: host,
		addr: addr,
		done: make(chan struct{}),
		rng:  rand.New(rand.NewSource(host.linkSeed(addr))),
	}
	l.cond = sync.NewCond(&l.mu)
	go l.writer()
	return l
}

// enqueue hands one encoded frame payload to the link. It never
// blocks: a full queue sheds the frame and counts it.
func (l *link) enqueue(payload []byte) {
	max := l.host.maxQueue()
	l.mu.Lock() //lint:allow execblock bounded critical section: the queue mutex; holders only append/pop and signal (lockheld-checked)
	if l.closed {
		l.mu.Unlock()
		return
	}
	if len(l.queue) >= max {
		l.mu.Unlock()
		l.shed.Add(1)
		return
	}
	l.queue = append(l.queue, payload)
	l.cond.Signal()
	l.mu.Unlock()
}

// writer is the link's only goroutine with dial/write rights. Frames
// are popped from the queue immediately before the write, and never
// re-queued on failure — a queued frame is delivered at most once,
// even across reconnects.
func (l *link) writer() {
	attempt := 0
	var frame []byte
	for {
		l.mu.Lock()
		for !l.closed && len(l.queue) == 0 {
			l.cond.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		if l.conn == nil {
			l.mu.Unlock()
			conn, peer, err := l.host.dialPeer(l.addr)
			if err != nil {
				l.redials.Add(1)
				attempt++
				if !l.sleepBackoff(attempt) {
					return // closed mid-backoff
				}
				continue
			}
			attempt = 0
			l.attach(conn, peer, l.host.selfID())
			continue
		}
		conn := l.conn
		payload := l.queue[0]
		l.queue = l.queue[1:]
		l.mu.Unlock()
		var err error
		frame, err = wire.AppendFrame(frame[:0], l.host.nextFrameID(), payload)
		if err != nil {
			// A payload no frame can carry: shed it like a full queue
			// would, counted and said, and keep the link. Whatever
			// waited on it ends by its own deadline.
			l.shed.Add(1)
			l.host.logf("link to %s: shed a kind-%d frame: %v", l.addr, payload[0], err)
			continue
		}
		if _, err := conn.Write(frame); err != nil {
			// The frame is lost with the connection; the next loop
			// iteration redials if frames remain.
			l.detach(conn)
			continue
		}
		l.sent.Add(1)
	}
}

// sleepBackoff sleeps the seeded exponential backoff for the given
// attempt, returning false if the link closed while sleeping.
func (l *link) sleepBackoff(attempt int) bool {
	select {
	case <-l.done:
		return false
	case <-time.After(backoffDelay(attempt, l.rng)):
		return true
	}
}

// backoffDelay computes attempt n's reconnect delay:
// min(backoffBase·2ⁿ⁻¹, backoffCap) · uniform[0.5, 1.5).
func backoffDelay(attempt int, rng *rand.Rand) time.Duration {
	d := backoffBase
	for i := 1; i < attempt && d < backoffCap; i++ {
		d *= 2
	}
	if d > backoffCap {
		d = backoffCap
	}
	return time.Duration(float64(d) * (0.5 + rng.Float64()))
}

// attach installs a connection as the pair's single active link and
// starts its reader. dialer is the node ID of the side that dialed the
// connection (the host's own ID for outbound dials, the peer's for
// accepted ones). When a connection is already active for the pair,
// the one dialed by the strictly smaller node ID wins; both sides
// apply the same rule, so after a simultaneous dial both keep the same
// connection. A tie (same dialer — a duplicate) keeps the existing
// connection.
func (l *link) attach(conn net.Conn, peer uint64, dialer uint64) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		closeConn(conn)
		return
	}
	var old net.Conn
	if l.conn != nil {
		if dialer >= l.connDialer {
			l.mu.Unlock()
			closeConn(conn)
			return
		}
		old = l.conn
		l.conn = nil
	}
	l.conn = conn
	l.peer = peer
	l.connDialer = dialer
	l.cond.Signal()
	l.mu.Unlock()
	if old != nil {
		// Closed outside l.mu: Close can block on teardown, and the
		// loser's reader dies into detach, which needs the same lock.
		closeConn(old)
	}
	go l.readLoop(conn, peer)
}

// detach tears down conn if it is still the active connection; the
// writer redials on demand. Safe against stale connections.
func (l *link) detach(conn net.Conn) {
	l.mu.Lock()
	if l.conn == conn {
		l.conn = nil
		l.cond.Signal()
	}
	l.mu.Unlock()
	closeConn(conn)
}

// readLoop consumes frames off one connection until it dies or a
// decoding error proves the peer hostile (typed wire.FrameError —
// the link drops, never OOMs). Transport faults (frame drop,
// connection kill) draw from the shared runtime.LinkFaults path.
// Frames are read through a buffer, so a frame that has arrived costs
// one read syscall or none, not two (header, then payload); the
// handshake before it read exactly its own frame off conn, so the
// buffer misses no byte.
func (l *link) readLoop(conn net.Conn, peer uint64) {
	faults := l.host.linkFaults(peer)
	r := bufio.NewReader(conn)
	var buf []byte
	for {
		_, payload, next, err := wire.ReadFrame(r, buf)
		if err != nil {
			l.detach(conn)
			return
		}
		buf = next
		if faults.DropFrame() {
			l.host.countFault("drop")
			continue
		}
		kind, body, err := splitMsg(payload)
		if err != nil {
			l.detach(conn)
			return
		}
		if err := l.host.handleFrame(peer, kind, body); err != nil {
			// A hostile or corrupt stream: drop the link, never panic.
			l.detach(conn)
			return
		}
		if faults.KillConn() {
			l.host.countFault("kill")
			l.detach(conn)
			return
		}
	}
}

// stats snapshots the link counters.
func (l *link) stats() (queued int, shed, redials, sent int64) {
	l.mu.Lock()
	queued = len(l.queue)
	l.mu.Unlock()
	return queued, l.shed.Load(), l.redials.Load(), l.sent.Load()
}

// close shuts the link down: the writer exits, the active connection
// (and its reader) die, queued frames are discarded.
func (l *link) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	conn := l.conn
	l.conn = nil
	l.queue = nil
	close(l.done)
	l.cond.Broadcast()
	l.mu.Unlock()
	if conn != nil {
		closeConn(conn)
	}
}

// dialHandshake runs the dialer side of the peer handshake on conn for
// the node listening at self: send Hello, await Welcome, compare the
// protocol version and then the corpus signature. Used by the node's
// dialPeer and by test harnesses.
func dialHandshake(conn net.Conn, self string, sig uint64, members []Member) (*helloMsg, error) {
	if err := conn.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return nil, err
	}
	hello := helloMsg{Version: protoVersion, Sig: sig, Self: memberAt(self), Members: members}
	if err := writePayload(conn, 1, appendHello(nil, kindHello, &hello)); err != nil {
		return nil, err
	}
	_, payload, _, err := wire.ReadFrame(conn, nil)
	if err != nil {
		return nil, fmt.Errorf("netrt: handshake read: %w", err)
	}
	kind, body, err := splitMsg(payload)
	if err != nil {
		return nil, err
	}
	if kind != kindWelcome && kind != kindReject {
		return nil, fmt.Errorf("netrt: unexpected handshake frame kind %d", kind)
	}
	// A welcome and a reject open alike; past another version's prefix
	// nothing is this side's to read.
	if v := bodyVersion(body); v != protoVersion {
		return nil, fmt.Errorf("netrt: peer %s speaks protocol version %d, this node %d", conn.RemoteAddr(), v, protoVersion)
	}
	w, err := decodeHello(body)
	if err != nil {
		return nil, err
	}
	if kind == kindReject || w.Sig != sig {
		return nil, fmt.Errorf("netrt: corpus mismatch with %s: it signs %016x, this node %016x", conn.RemoteAddr(), w.Sig, sig)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return nil, err
	}
	return &w, nil
}

// writePayload frames one payload and writes it to conn: both sides of
// both handshakes, before a link or a session owns the connection.
func writePayload(conn net.Conn, id uint64, payload []byte) error {
	frame, err := wire.AppendFrame(nil, id, payload)
	if err != nil {
		return err
	}
	_, err = conn.Write(frame)
	return err
}
