package netrt

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"landmarkdht/internal/runtime"
	"landmarkdht/internal/wire"
)

// fakeHost is the minimal linkHost for exercising a link in isolation.
type fakeHost struct {
	id      uint64
	frameID atomic.Uint64
	logged  atomic.Int64
}

func (h *fakeHost) selfID() uint64 { return h.id }

func (h *fakeHost) dialPeer(addr string) (net.Conn, uint64, error) {
	conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
	if err != nil {
		return nil, 0, err
	}
	w, err := dialHandshake(conn, "fake", 42, nil)
	if err != nil {
		conn.Close()
		return nil, 0, err
	}
	return conn, w.Self.ID, nil
}

func (h *fakeHost) handleFrame(peer uint64, kind byte, body []byte) error { return nil }
func (h *fakeHost) nextFrameID() uint64                                   { return h.frameID.Add(1) }
func (h *fakeHost) linkFaults(peer uint64) *runtime.LinkFaults            { return nil }
func (h *fakeHost) linkSeed(addr string) int64                            { return 7 }
func (h *fakeHost) countFault(string)                                     {}
func (h *fakeHost) maxQueue() int                                         { return 8 }
func (h *fakeHost) logf(string, ...any)                                   { h.logged.Add(1) }

// peerServer is a hand-rolled remote: it accepts connections, answers
// the peer handshake, and forwards every received frame payload to
// recv. Stopping it kills the listener and any open connection.
type peerServer struct {
	ln   net.Listener
	recv chan []byte

	mu    sync.Mutex
	conns []net.Conn
}

func servePeer(t *testing.T, addr string) *peerServer {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	s := &peerServer{ln: ln, recv: make(chan []byte, 64)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			go func() {
				defer conn.Close()
				_, payload, _, err := wire.ReadFrame(conn, nil)
				if err != nil || len(payload) == 0 || payload[0] != kindHello {
					return
				}
				welcome := helloMsg{Version: protoVersion, Sig: 42, Self: memberAt(addr)}
				if writePayload(conn, 1, appendHello(nil, kindWelcome, &welcome)) != nil {
					return
				}
				var buf []byte
				for {
					_, p, next, err := wire.ReadFrame(conn, buf)
					if err != nil {
						return
					}
					buf = next
					s.recv <- append([]byte(nil), p...)
				}
			}()
		}
	}()
	return s
}

func (s *peerServer) stop() {
	s.ln.Close()
	s.mu.Lock()
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
	s.mu.Unlock()
}

func collect(t *testing.T, ch chan []byte, n int, timeout time.Duration) [][]byte {
	t.Helper()
	var out [][]byte
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case p := <-ch:
			out = append(out, p)
		case <-deadline:
			t.Fatalf("received %d frames, want %d", len(out), n)
		}
	}
	return out
}

// TestLinkFlappingPeer is the reconnect contract: the remote listener
// dies and returns; the link backs off, redials, and delivers the
// frames queued while it was down exactly once.
func TestLinkFlappingPeer(t *testing.T) {
	// Reserve a port so the server can come back on the same address.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	srv := servePeer(t, addr)
	host := &fakeHost{id: 1}
	l := newLink(host, addr)
	defer l.close()

	l.enqueue([]byte{100, 0})
	l.enqueue([]byte{100, 1})
	first := collect(t, srv.recv, 2, 5*time.Second)
	for i, p := range first {
		if p[1] != byte(i) {
			t.Fatalf("frame %d payload %v", i, p)
		}
	}

	// Kill the remote. Wait until the link notices the dead
	// connection, so the frames queued next cannot race onto it.
	srv.stop()
	waitFor(t, 5*time.Second, func() bool { return !l.connected() })

	for i := 2; i < 7; i++ {
		l.enqueue([]byte{100, byte(i)})
	}
	// Let some dials fail against the dead address: the backoff path,
	// not just a single instant redial, must be exercised.
	waitFor(t, 5*time.Second, func() bool { _, _, redials, _ := l.stats(); return redials >= 2 })

	srv2 := servePeer(t, addr)
	defer srv2.stop()
	queued := collect(t, srv2.recv, 5, 10*time.Second)
	seen := map[byte]int{}
	for _, p := range queued {
		seen[p[1]]++
	}
	for i := byte(2); i < 7; i++ {
		if seen[i] != 1 {
			t.Fatalf("frame %d delivered %d times, want exactly once (got %v)", i, seen[i], seen)
		}
	}
	// Nothing else may trickle in: the pre-flap frames are gone for
	// good, not replayed.
	select {
	case p := <-srv2.recv:
		t.Fatalf("unexpected extra frame %v after drain", p)
	case <-time.After(200 * time.Millisecond):
	}
}

// TestLinkQueueSheds checks the bounded queue degrades by shedding and
// counting, never blocking.
func TestLinkQueueSheds(t *testing.T) {
	host := &fakeHost{id: 1}          // maxQueue 8
	l := newLink(host, "127.0.0.1:1") // nothing listens: frames only queue
	defer l.close()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			l.enqueue([]byte{byte(i)})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("enqueue blocked on a full queue")
	}
	_, shed, _, _ := l.stats()
	if shed < 90 {
		t.Fatalf("shed = %d, want >= 90 of 100 over an 8-deep queue", shed)
	}
}

// TestLinkShedsOversizePayload: a payload no frame can carry is shed
// where the writer finds it out — counted and logged, not dropped in
// silence — and the link goes on to deliver what follows.
func TestLinkShedsOversizePayload(t *testing.T) {
	srv := servePeer(t, "127.0.0.1:0")
	defer srv.stop()
	host := &fakeHost{id: 1}
	l := newLink(host, srv.ln.Addr().String())
	defer l.close()
	l.enqueue(make([]byte, wire.MaxFramePayload+1))
	l.enqueue([]byte{100, 1})
	if got := collect(t, srv.recv, 1, 5*time.Second); len(got[0]) != 2 || got[0][1] != 1 {
		t.Fatalf("delivered %v, want the frame queued behind the oversize one", got[0])
	}
	if _, shed, _, _ := l.stats(); shed != 1 || host.logged.Load() != 1 {
		t.Fatalf("shed=%d logged=%d, want 1 and 1", shed, host.logged.Load())
	}
}

// TestBackoffDelaySeeded pins the backoff schedule: exponential to the
// cap, jittered within [0.5, 1.5), and reproducible per seed.
func TestBackoffDelaySeeded(t *testing.T) {
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	for attempt := 1; attempt <= 10; attempt++ {
		da := backoffDelay(attempt, a)
		db := backoffDelay(attempt, b)
		if da != db {
			t.Fatalf("attempt %d: %v != %v with equal seeds", attempt, da, db)
		}
		base := backoffBase << (attempt - 1)
		if base > backoffCap {
			base = backoffCap
		}
		if da < base/2 || da >= base+base/2 {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, da, base/2, base+base/2)
		}
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
