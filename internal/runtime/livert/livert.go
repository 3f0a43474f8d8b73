// Package livert is the live implementation of the runtime seams: the
// same protocol code that runs inside the discrete-event simulator
// executes here in real time, serving concurrent queries. Like the
// simulator it schedules and does not transport: a message is a
// prebound callback that runs on the executor after its modeled
// latency, and no byte moves (the protocol charges — and under
// EncodeWire produces and decodes — the wire encoding itself). The
// runtime whose messages do cross a boundary is netrt, which runs its
// protocol on this package's executor and timers and adds TCP links.
//
// # Execution model
//
// The protocol layers (chord, core) are single-threaded by contract:
// one callback runs to completion before the next starts. livert keeps
// that contract with one protocol-executor goroutine draining a FIFO
// task queue. Everything else is concurrent:
//
//   - real time.Timer timers back AfterFunc (retransmission timeouts),
//     delayed scheduling and message latency, firing into the queue,
//   - any number of client goroutines issue work through Do/Await,
//     which also runs on the executor.
//
// Message deliveries are the one kind of task the queue bounds
// (Config.MaxInbox): a full inbox sheds the newest delivery, counted
// by QueueStats, exactly as a full netrt link queue does.
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
	"sync"
	"sync/atomic"
	"time"

	"landmarkdht/internal/runtime"
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

// Runtime implements runtime.Driver — the Runtime and Transport seams
// and the bridges onto them — over one executor goroutine and real
// timers.
type Runtime struct {
	latencyScale float64
	start        time.Time
	rng          *rand.Rand

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []task
	closed bool
	// maxInbox bounds the sheddable (message-delivery) tasks in queue;
	// <= 0 means unbounded. tasksShed counts deliveries dropped by the
	// bound.
	maxInbox  int
	tasksShed atomic.Int64

	wg sync.WaitGroup
}

// ErrClosed is returned by Do/Await on a runtime that has been closed.
var ErrClosed = errors.New("livert: runtime closed")

// New starts a live runtime: its protocol-executor goroutine runs until
// Close.
func New(cfg Config) *Runtime {
	r := &Runtime{
		latencyScale: cfg.LatencyScale,
		start:        time.Now(),
		rng:          rand.New(rand.NewSource(cfg.Seed)),
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
// Transport/Clock surface, which carries its own
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

// Send implements runtime.Transport: deliver(arg) runs on the executor
// once the scaled latency has elapsed — never inside Send — as a
// sheddable task.
//
//lint:context executor
func (r *Runtime) Send(_ uint64, delay time.Duration, deliver func(any), arg any) {
	r.after(time.Duration(float64(delay)*r.latencyScale), task{argFn: deliver, arg: arg, sheddable: true})
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
// executor drains its queue and exits. Close blocks until it is gone.
func (r *Runtime) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}
