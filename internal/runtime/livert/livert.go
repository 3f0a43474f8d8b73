// Package livert is netrt's executor: the runtime seams in real time,
// for a node whose messages cross TCP links. The protocol code a netrt
// node runs is single-threaded by contract — one callback runs to
// completion before the next starts — and livert keeps that contract
// with one executor goroutine draining a FIFO task queue. Everything
// else is concurrent:
//
//   - real time.Timer timers back AfterFunc (retransmission timeouts)
//     and delayed scheduling, firing into the queue,
//   - link readers hand decoded frames to the executor with Schedule,
//   - any number of client goroutines issue work through Do/Await,
//     which also runs on the executor.
//
// The queue is unbounded: netrt bounds its traffic in each link's send
// queue.
//
// Now is wall-clock time since the runtime started; every delay is a
// real duration.
package livert

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"landmarkdht/internal/runtime"
)

// Config parameterizes a live runtime.
type Config struct {
	// Seed seeds the runtime's random source (protocol decisions such
	// as fault draws and timer offsets; only touched on the executor).
	Seed int64
}

// task is one unit of protocol work for the executor. Exactly one of
// fn / argFn is set; argFn mirrors Clock.ScheduleArg's prebound form.
type task struct {
	fn    func()
	argFn func(any)
	arg   any
}

// Runtime implements runtime.Driver — the Runtime seam and the bridges
// onto it — over one executor goroutine and real timers.
type Runtime struct {
	start time.Time
	rng   *rand.Rand

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []task
	closed bool

	wg sync.WaitGroup
}

// ErrClosed is returned by Do/Await on a runtime that has been closed.
var ErrClosed = errors.New("livert: runtime closed")

// New starts a live runtime: its protocol-executor goroutine runs until
// Close.
func New(cfg Config) *Runtime {
	r := &Runtime{
		start: time.Now(),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	r.cond = sync.NewCond(&r.mu)
	r.wg.Add(1)
	go r.run()
	return r
}

// run is the protocol executor: the single goroutine on which every
// protocol callback executes. It is the root of executor context; the
// tasks it dispatches reach the rest of the runtime through the Clock
// surface, which carries its own
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
// whether the task was accepted (false after Close).
func (r *Runtime) post(t task) bool {
	r.mu.Lock() //lint:allow execblock bounded critical section: holders only append and signal (lockheld-checked)
	if r.closed {
		r.mu.Unlock()
		return false
	}
	r.queue = append(r.queue, t)
	r.cond.Signal()
	r.mu.Unlock()
	return true
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
