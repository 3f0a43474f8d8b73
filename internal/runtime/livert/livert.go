// Package livert is the live implementation of the runtime seams: the
// same protocol code that runs inside the discrete-event simulator
// executes here in real time, over real in-process connections, serving
// concurrent queries.
//
// # Execution model
//
// The protocol layers (chord, core) are single-threaded by contract:
// one callback runs to completion before the next starts. livert keeps
// that contract with one protocol-executor goroutine draining a FIFO
// task queue. Everything else is concurrent:
//
//   - one reader goroutine per registered node (its "inbox") pulls
//     length-prefixed frames off the node's net.Pipe connection and
//     posts the matching delivery callback to the executor,
//   - real time.Timer timers back AfterFunc (retransmission timeouts)
//     and delayed scheduling, firing into the same queue,
//   - any number of client goroutines issue work through Do/Await,
//     which also runs on the executor.
//
// # Wire path
//
// Transport.Send with a payload frames the message's wire encoding
// (internal/wire bytes, produced by the protocol when EncodeWire is on)
// as [8-byte message id | 4-byte length | payload] and writes it to the
// destination node's connection. The node's reader goroutine consumes
// the frame and matches it, by id, to the pending delivery callback —
// the callback's prebound state carries the payload for decoding,
// exactly as in the simulated runtime. Messages without a payload (size
// accounting only) skip the connection and go straight through the
// timer path.
//
// # Time
//
// Now is wall-clock time since the runtime started. The modeled network
// latency handed to Send is multiplied by Config.LatencyScale (0 =
// deliver as fast as possible); AfterFunc and Schedule delays are real
// durations, unscaled, because they implement protocol timeouts and
// maintenance periods rather than link latency.
package livert

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"landmarkdht/internal/runtime"
	"landmarkdht/internal/wire"
)

// Config parameterizes a live runtime.
type Config struct {
	// Seed seeds the runtime's random source (protocol decisions such
	// as fault draws and timer offsets; only touched on the executor).
	Seed int64
	// LatencyScale multiplies the modeled network latency of every
	// message. 0 delivers as fast as the machine allows (the useful
	// setting for tests); 1 reproduces the latency model in real time.
	LatencyScale float64
	// Faults injects transport-level failures into the inbox path:
	// FrameDrop discards received frames after they crossed the
	// connection, KillConn tears a node's connection down (losing
	// every frame in flight on it) and re-establishes it. The policy's
	// protocol-level faults (drop, duplicate, delay, partition) are
	// NOT applied here — the overlay injects those identically on both
	// runtimes via chord.FaultPlanFromPolicy. Frame decisions draw
	// from per-reader sources seeded by Faults.Seed, never from the
	// executor's protocol source.
	Faults *runtime.FaultPolicy
	// MaxInbox bounds the protocol executor's queue of pending message
	// deliveries (timers and client work are never shed). A full inbox
	// sheds the newest delivery — counted by QueueStats, surfaced by
	// the overlay's retry/deadline accounting as an honest incomplete
	// result, never silent loss. 0 applies DefaultMaxInbox; negative
	// disables the bound.
	MaxInbox int
}

// DefaultMaxInbox is the delivery-queue bound applied when
// Config.MaxInbox is zero.
const DefaultMaxInbox = 8192

// FaultStats counts the transport-level faults a live runtime
// injected.
type FaultStats struct {
	// FramesDropped is the number of received frames discarded by the
	// inbox fault hook.
	FramesDropped int64
	// ConnsKilled is the number of connection kill/re-establish cycles.
	ConnsKilled int64
}

// task is one unit of protocol work for the executor. Exactly one of
// fn / argFn is set; argFn mirrors Clock.ScheduleArg's prebound form.
// sheddable marks message deliveries, the only tasks a full inbox may
// drop.
type task struct {
	fn        func()
	argFn     func(any)
	arg       any
	sheddable bool
}

// envelope is a sent message waiting for its frame to arrive at the
// destination's reader. to identifies the destination so a connection
// kill can sweep the envelopes lost with it.
type envelope struct {
	deliver func(any)
	arg     any
	delay   time.Duration
	to      uint64
}

// endpoint is one registered node's connection pair: the executor
// writes frames to w, the node's reader goroutine consumes them from r.
type endpoint struct {
	w net.Conn
	r net.Conn
}

// Runtime implements runtime.Runtime, runtime.Transport and
// runtime.NodeRegistry over real goroutines, connections and timers.
type Runtime struct {
	cfg   Config
	start time.Time
	rng   *rand.Rand

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []task
	closed bool
	// maxInbox bounds the sheddable (message-delivery) tasks in queue;
	// <= 0 means unbounded. tasksShed counts deliveries dropped by the
	// bound.
	maxInbox  int
	tasksShed atomic.Int64

	epMu sync.Mutex
	eps  map[uint64]*endpoint
	// epsClosed marks the endpoint table as torn down (Close ran); a
	// racing KillConnection must not re-open connections past it.
	epsClosed bool

	pendMu  sync.Mutex
	pending map[uint64]envelope
	nextMsg uint64

	framesDropped atomic.Int64
	connsKilled   atomic.Int64

	wg sync.WaitGroup
}

// ErrClosed is returned by Do/Await on a runtime that has been closed.
var ErrClosed = errors.New("livert: runtime closed")

// New starts a live runtime: its protocol-executor goroutine runs until
// Close.
func New(cfg Config) *Runtime {
	r := &Runtime{
		cfg:     cfg,
		start:   time.Now(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		eps:     make(map[uint64]*endpoint),
		pending: make(map[uint64]envelope),
	}
	switch {
	case cfg.MaxInbox == 0:
		r.maxInbox = DefaultMaxInbox
	case cfg.MaxInbox > 0:
		r.maxInbox = cfg.MaxInbox
	}
	r.cond = sync.NewCond(&r.mu)
	r.wg.Add(1)
	go r.run()
	return r
}

// run is the protocol executor: the single goroutine on which every
// protocol callback executes. It is the root of executor context; the
// tasks it dispatches reach the rest of the runtime through the
// Transport/NodeRegistry/Clock surface, which carries its own
// //lint:context executor annotations because dynamic task dispatch is
// invisible to the call graph.
//
//lint:context executor
func (r *Runtime) run() {
	defer r.wg.Done()
	r.mu.Lock() //lint:allow execblock the executor's own queue mutex; holders only append and signal
	for {
		for len(r.queue) == 0 && !r.closed {
			r.cond.Wait() //lint:allow execblock idle executor parking on its own queue is the design
		}
		if len(r.queue) == 0 {
			r.mu.Unlock()
			return // closed and drained
		}
		t := r.queue[0]
		r.queue = r.queue[1:]
		r.mu.Unlock()
		if t.argFn != nil {
			t.argFn(t.arg)
		} else {
			t.fn()
		}
		r.mu.Lock() //lint:allow execblock the executor's own queue mutex; holders only append and signal
	}
}

// post enqueues a task for the executor. It never blocks. It reports
// whether the task was accepted (false after Close). Sheddable tasks —
// message deliveries — are dropped (and counted) when the bounded
// inbox is full: the transport sheds exactly like a full netrt link
// queue, and the overlay's retry/deadline accounting turns the loss
// into an honest incomplete result.
func (r *Runtime) post(t task) bool {
	r.mu.Lock() //lint:allow execblock bounded critical section: holders only append and signal (lockheld-checked)
	if r.closed {
		r.mu.Unlock()
		return false
	}
	if t.sheddable && r.maxInbox > 0 && len(r.queue) >= r.maxInbox {
		r.mu.Unlock()
		r.tasksShed.Add(1)
		return true
	}
	r.queue = append(r.queue, t)
	r.cond.Signal()
	r.mu.Unlock()
	return true
}

// QueueStats snapshots the protocol executor's inbox: its current
// depth and the number of deliveries shed by the bound. Safe to call
// from any goroutine.
func (r *Runtime) QueueStats() (depth int, shed int64) {
	r.mu.Lock()
	depth = len(r.queue)
	r.mu.Unlock()
	return depth, r.tasksShed.Load()
}

// after posts t once d has elapsed (immediately for d <= 0).
func (r *Runtime) after(d time.Duration, t task) {
	if d <= 0 {
		r.post(t)
		return
	}
	time.AfterFunc(d, func() { r.post(t) })
}

// Now returns the wall-clock time elapsed since the runtime started.
func (r *Runtime) Now() time.Duration { return time.Since(r.start) }

// Schedule runs fn on the executor after delay of real time. Protocol
// code calls it from executor context.
//
//lint:context executor
func (r *Runtime) Schedule(delay time.Duration, fn func()) {
	r.after(delay, task{fn: fn})
}

// ScheduleArg runs fn(arg) on the executor after delay of real time.
// Protocol code calls it from executor context.
//
//lint:context executor
func (r *Runtime) ScheduleArg(delay time.Duration, fn func(any), arg any) {
	r.after(delay, task{argFn: fn, arg: arg})
}

// liveTimer backs AfterFunc with a real time.Timer. Its flags are only
// touched on the executor (arming happens there, the callback runs
// there, and protocol code stops timers from there), so no lock is
// needed — the time.Timer goroutine merely posts.
type liveTimer struct {
	rt      *Runtime
	stopped bool
	fired   bool
	t       *time.Timer
}

// AfterFunc schedules fn on the executor after delay of real time and
// returns a cancellable handle. Protocol code arms timers from executor
// context.
//
//lint:context executor
func (r *Runtime) AfterFunc(delay time.Duration, fn func()) runtime.Timer {
	lt := &liveTimer{rt: r}
	lt.t = time.AfterFunc(delay, func() {
		r.post(task{fn: func() {
			if lt.stopped {
				return
			}
			lt.fired = true
			fn()
		}})
	})
	return lt
}

// Stop cancels the timer if it has not fired.
func (lt *liveTimer) Stop() {
	lt.stopped = true
	lt.t.Stop()
}

// Stopped reports whether the timer has fired or been cancelled.
func (lt *liveTimer) Stopped() bool { return lt.stopped || lt.fired }

// Rand returns the runtime's seeded random source. Executor-only.
func (r *Runtime) Rand() *rand.Rand { return r.rng }

// Register opens the node's connection pair and starts its reader
// goroutine. Called by the overlay (on the executor) when a node joins.
//
//lint:context executor
func (r *Runtime) Register(node uint64) {
	r.epMu.Lock() //lint:allow execblock bounded critical section: the endpoint table mutex; holders never block (lockheld-checked)
	if _, dup := r.eps[node]; dup {
		r.epMu.Unlock()
		return
	}
	rd, wr := net.Pipe()
	r.eps[node] = &endpoint{w: wr, r: rd}
	r.epMu.Unlock()
	r.wg.Add(1)
	go r.readLoop(node, rd)
}

// Unregister closes the node's connections; its reader goroutine exits.
// Called by the overlay (on the executor) when a node leaves.
//
//lint:context executor
func (r *Runtime) Unregister(node uint64) {
	r.epMu.Lock() //lint:allow execblock bounded critical section: the endpoint table mutex; holders never block (lockheld-checked)
	ep := r.eps[node]
	delete(r.eps, node)
	r.epMu.Unlock()
	if ep != nil {
		closeConn(ep.w)
		closeConn(ep.r)
	}
}

// closeConn is best-effort teardown of a connection that is already
// being abandoned: net.Pipe's Close never fails meaningfully and
// returns without waiting on the peer.
func closeConn(c net.Conn) {
	//lint:allow execblock net.Pipe close is constant-time; it never parks the executor
	_ = c.Close() //lint:allow errdrop best-effort teardown of an abandoned pipe
}

// Send implements runtime.Transport. With a payload, the bytes travel
// as a frame over the destination node's connection and the delivery
// callback runs once the node's reader has consumed them (plus the
// scaled latency). Without one — or when the destination has no
// connection (already unregistered) — delivery degrades to the timer
// path; the overlay's own delivery-time liveness checks decide the
// message's fate either way.
//
//lint:context executor
func (r *Runtime) Send(to uint64, delay time.Duration, payload []byte, deliver func(any), arg any) {
	d := time.Duration(float64(delay) * r.cfg.LatencyScale)
	if payload == nil {
		r.after(d, task{argFn: deliver, arg: arg, sheddable: true})
		return
	}
	r.epMu.Lock() //lint:allow execblock bounded critical section: the endpoint table mutex; holders never block (lockheld-checked)
	ep := r.eps[to]
	r.epMu.Unlock()
	if ep == nil {
		r.after(d, task{argFn: deliver, arg: arg, sheddable: true})
		return
	}
	r.pendMu.Lock() //lint:allow execblock bounded critical section: the pending-envelope mutex; holders never block (lockheld-checked)
	r.nextMsg++
	id := r.nextMsg
	r.pending[id] = envelope{deliver: deliver, arg: arg, delay: d, to: to}
	r.pendMu.Unlock()
	frame, ferr := wire.AppendFrame(make([]byte, 0, wire.FrameHeader+len(payload)), id, payload)
	if ferr != nil {
		// Oversized payload: impossible for protocol-produced messages,
		// but degrade to the timer path rather than corrupt the stream.
		r.pendMu.Lock() //lint:allow execblock bounded critical section: the pending-envelope mutex; holders never block (lockheld-checked)
		delete(r.pending, id)
		r.pendMu.Unlock()
		r.after(d, task{argFn: deliver, arg: arg, sheddable: true})
		return
	}
	//lint:allow execblock every pipe has a dedicated reader draining it, and KillConnection releases blocked writers
	if _, err := ep.w.Write(frame); err != nil {
		// Connection torn down between the lookup and the write: fall
		// back to the timer path (same as a missing endpoint).
		r.pendMu.Lock() //lint:allow execblock bounded critical section: the pending-envelope mutex; holders never block (lockheld-checked)
		_, pend := r.pending[id]
		delete(r.pending, id)
		r.pendMu.Unlock()
		if pend {
			r.after(d, task{argFn: deliver, arg: arg, sheddable: true})
		}
	}
}

// readLoop is one node's inbox: it consumes frames off the connection
// and posts the matching delivery callbacks until the connection
// closes. When a fault policy configures transport-level faults, the
// loop draws from the shared runtime.LinkFaults hook (per reader, so
// decisions stay off the executor's protocol source — the same path
// netrt's TCP links use) and may discard a consumed frame or kill its
// own connection.
func (r *Runtime) readLoop(node uint64, conn net.Conn) {
	defer r.wg.Done()
	faults := runtime.NewLinkFaults(r.cfg.Faults, node)
	var buf []byte
	for {
		// The payload bytes crossed the connection; the delivery
		// callback re-decodes them from its prebound state, so the
		// buffer contents are discarded after the read.
		id, _, next, err := wire.ReadFrame(conn, buf)
		if err != nil {
			return
		}
		buf = next
		if faults.DropFrame() {
			// Inbox failure: the frame crossed the connection but is
			// discarded before delivery. The sender learns nothing; the
			// overlay's retransmission timeout surfaces the loss.
			r.pendMu.Lock()
			delete(r.pending, id)
			r.pendMu.Unlock()
			r.framesDropped.Add(1)
			continue
		}
		r.pendMu.Lock()
		env, ok := r.pending[id]
		delete(r.pending, id)
		r.pendMu.Unlock()
		if ok {
			r.after(env.delay, task{argFn: env.deliver, arg: env.arg, sheddable: true})
		}
		if faults.KillConn() {
			// Kill this node's own connection: everything still in
			// flight on it is lost, then a fresh pair (and a fresh
			// reader) takes over. This loop exits.
			r.KillConnection(node)
			return
		}
	}
}

// KillConnection tears down one node's connection pair and
// re-establishes it: every frame still in flight on the old pair is
// lost (their pending deliveries are swept, so the overlay sees them
// as timeouts), writers blocked on the old pair are released with an
// error, and a fresh reader goroutine serves the new pair. It is safe
// to call from any goroutine; after Close it is a no-op.
func (r *Runtime) KillConnection(node uint64) {
	r.epMu.Lock()
	ep, ok := r.eps[node]
	if !ok || r.epsClosed {
		r.epMu.Unlock()
		return
	}
	rd, wr := net.Pipe()
	r.eps[node] = &endpoint{w: wr, r: rd}
	r.epMu.Unlock()
	closeConn(ep.w)
	closeConn(ep.r)
	r.pendMu.Lock()
	for id, env := range r.pending {
		if env.to == node {
			delete(r.pending, id)
		}
	}
	r.pendMu.Unlock()
	r.connsKilled.Add(1)
	r.wg.Add(1)
	go r.readLoop(node, rd)
}

// FaultStats returns the transport-level fault counters. Safe to call
// from any goroutine.
func (r *Runtime) FaultStats() FaultStats {
	return FaultStats{
		FramesDropped: r.framesDropped.Load(),
		ConnsKilled:   r.connsKilled.Load(),
	}
}

// Do runs fn on the executor and waits for it to return. It is how
// client goroutines perform protocol operations (setup, queries,
// inspection) without violating the single-threaded contract.
func (r *Runtime) Do(fn func()) error {
	done := make(chan struct{})
	if !r.post(task{fn: func() {
		fn()
		close(done)
	}}) {
		return ErrClosed
	}
	<-done
	return nil
}

// Await runs op on the executor and waits until op's completion
// callback fires (also on the executor) or the timeout elapses. op
// returning a non-nil error completes the wait immediately. It is the
// bridge from blocking client code to the protocol's callback style:
//
//	err := rt.Await(5*time.Second, func(finish func()) error {
//		return sys.RangeQuery(..., func(qr *core.QueryResult) {
//			result = qr
//			finish()
//		})
//	})
func (r *Runtime) Await(timeout time.Duration, op func(finish func()) error) error {
	done := make(chan struct{})
	finished := false
	finish := func() {
		// Executor-only; guards against duplicate completion.
		if !finished {
			finished = true
			close(done)
		}
	}
	var opErr error
	if !r.post(task{fn: func() {
		if err := op(finish); err != nil {
			opErr = err
			finish()
		}
	}}) {
		return ErrClosed
	}
	select {
	case <-done:
		return opErr
	case <-time.After(timeout):
		return fmt.Errorf("livert: operation timed out after %v", timeout)
	}
}

// Sleep blocks the calling goroutine for d of real time. It exists so
// callers outside the lint-exempt packages (Platform.Run in live mode)
// do not need wall-clock calls of their own.
func (r *Runtime) Sleep(d time.Duration) { time.Sleep(d) }

// Close shuts the runtime down: no further tasks are accepted, the
// executor drains its queue and exits, all node connections close and
// their readers exit. Close blocks until every goroutine is gone.
func (r *Runtime) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	// Snapshot the endpoints under the lock, close them after releasing
	// it: Close on one end synchronizes with that pipe's peer, and a
	// reader racing into KillConnection needs epMu for its own teardown.
	r.epMu.Lock()
	r.epsClosed = true
	eps := make([]*endpoint, 0, len(r.eps))
	for node, ep := range r.eps { //lint:allow maporder teardown set; close order is immaterial
		delete(r.eps, node)
		eps = append(eps, ep)
	}
	r.epMu.Unlock()
	for _, ep := range eps {
		closeConn(ep.w)
		closeConn(ep.r)
	}
	r.wg.Wait()
}
