// Package runtime defines the execution seams that separate the
// protocol layers (internal/chord, internal/core) from how they are
// driven. The paper's protocol logic — query routing, surrogate
// refinement, reliable delivery, replication, load migration — is
// written against one narrow interface, Runtime: a Clock (now /
// schedule / cancellable timers) and the seeded random source. A
// message is an event too: the overlay (chord.Network) decides its
// destination, latency, faults and liveness at delivery, and hands its
// delivery to ScheduleArg.
//
// Two implementations exist:
//
//   - runtime/simrt wraps a sim.Engine: virtual time, deterministic
//     event ordering, zero-allocation scheduling. core and chord run on
//     it and nothing else — every experiment, test and Platform. A
//     message is a record whose delivery event runs later, its size
//     charged by the overlay's §4.1 model (or, under EncodeWire, by the
//     length of the encoding the protocol itself produces and decodes);
//     no byte crosses it.
//   - runtime/livert is netrt's executor: one goroutine draining a FIFO
//     task queue, time.Timer-backed delays, and the Do/Await bridges
//     netrt's clients and readers use. netrt's nodes are separate
//     processes joined by TCP links; its bytes cross a socket.
//
// Protocol code stays single-threaded by contract in both runtimes: a
// callback runs to completion before the next one starts (the sim
// engine is single-threaded; livert serializes callbacks on one
// executor goroutine while its timers and clients run concurrently).
// That contract is what cmd/lmlint's analyzers enforce for the
// engine-owned packages.
package runtime

import (
	"math/rand"
	"time"
)

// Timer is a cancellable one-shot event, the building block for
// retransmission timeouts: arm it when a message leaves, stop it when
// the acknowledgement arrives. A stopped timer's callback never runs.
type Timer interface {
	// Stop cancels the timer if it has not fired yet. Idempotent.
	Stop()
	// Stopped reports whether the timer has fired or been cancelled.
	Stopped() bool
}

// Clock is the time seam. Simulated clocks advance virtually and
// deliver callbacks in deterministic order; a live clock is anchored to
// the wall clock and delivers callbacks on the runtime's executor
// goroutine.
type Clock interface {
	// Now returns the time elapsed since the runtime started.
	Now() time.Duration
	// Schedule runs fn after delay. A non-positive delay runs fn as the
	// next available event, never synchronously inside Schedule.
	Schedule(delay time.Duration, fn func())
	// ScheduleArg runs fn(arg) after delay. It is the allocation-free
	// alternative to Schedule for hot paths: fn is a prebound function
	// and arg carries the per-event state, so no closure is needed.
	ScheduleArg(delay time.Duration, fn func(any), arg any)
	// AfterFunc schedules fn to run once after delay and returns a
	// handle that can cancel it.
	AfterFunc(delay time.Duration, fn func()) Timer
}

// Runtime is what protocol code holds: the clock plus the random
// source every probabilistic decision (fault draws, timer
// desynchronization offsets) must come from. In the simulated runtime
// the source is the engine's seeded RNG, which is what makes trials
// reproducible; livert seeds its own source and only touches it from
// the executor.
type Runtime interface {
	Clock
	// Rand returns the runtime's random source. It must only be used
	// from protocol callbacks (the source is not concurrency-safe).
	Rand() *rand.Rand
}

// Driver is a runtime as the code that drives a protocol holds it (a
// Platform, a netrt node, a test): the clock the protocol is written
// against, and the bridges by which a caller outside the protocol's
// execution context gets onto it and waits for what it started there.
// simrt's caller is that context, so its bridges run inline and spend
// simulated time; livert's hand the work to the executor and block in
// real time.
type Driver interface {
	Runtime
	// Do runs fn on the protocol's execution context and returns once it
	// has run. It fails only on a closed runtime.
	Do(fn func()) error
	// Await runs op there and returns once the completion callback op
	// was handed has been called, op has returned an error (which Await
	// returns), or timeout of the runtime's own time has passed.
	Await(timeout time.Duration, op func(finish func()) error) error
	// Close releases the runtime; nothing may be scheduled afterwards.
	Close()
}

// Ticker repeatedly invokes fn every period until Stop is called. It is
// the building block for periodic protocol work (load probing, netrt's
// gossip, heartbeats and anti-entropy) and works over any Clock; the tick
// closure is allocated once per ticker and rescheduling it reuses the
// same function value.
type Ticker struct {
	stopped bool
}

// NewTicker schedules fn every period on c, with the first invocation
// after an initial offset (use offset = period for a plain ticker; a
// random offset desynchronizes node timers). fn runs until Stop.
func NewTicker(c Clock, offset, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("runtime: NewTicker with non-positive period")
	}
	t := &Ticker{}
	var tick func()
	tick = func() {
		if t.stopped {
			return
		}
		fn()
		if !t.stopped {
			c.Schedule(period, tick)
		}
	}
	c.Schedule(offset, tick)
	return t
}

// Stop cancels future invocations. It is idempotent.
func (t *Ticker) Stop() { t.stopped = true }

// Stopped reports whether the ticker has been stopped.
func (t *Ticker) Stopped() bool { return t.stopped }
