// Package sim implements a deterministic discrete-event simulation engine.
//
// It is the substitute for p2psim used by the paper's evaluation: a
// virtual clock, a binary-heap event scheduler, and a seeded random
// number generator. A single Engine is strictly single-threaded and
// deterministic for a given seed; parallelism is obtained by running
// independent engines (one per trial) on separate goroutines.
//
// The scheduler is allocation-free in steady state: the event queue is
// a value-typed binary heap of (time, seq, slot) triples, and callbacks
// live in an engine-local slot arena recycled through a plain free
// list (DESIGN.md §9). Schedule, ScheduleArg and AfterFunc perform
// zero heap allocations once the heap and arena have grown to the
// simulation's high-water mark.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in simulated time, measured as a duration since the
// start of the simulation.
type Time = time.Duration

// heapItem is one pending event in the priority queue. The callback
// itself lives in the slot arena; keeping the heap entries small makes
// sift operations cheap and allocation-free.
type heapItem struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among events with equal time
	slot int32
}

// slot holds one scheduled callback. Exactly one of fn and argFn is
// set; argFn carries its argument out of band so callers can schedule
// a prebound function without allocating a closure. gen increments
// every time the slot is recycled, which lets Timer handles detect
// that their event has already fired.
type slot struct {
	fn      func()
	argFn   func(any)
	arg     any
	gen     uint32
	stopped bool
}

// Engine is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now       Time
	seq       uint64
	heap      []heapItem
	slots     []slot
	free      []int32 // recycled slot indices (engine-local free list)
	rng       *rand.Rand
	processed uint64
	running   bool
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed reports how many events have been executed so far.
func (e *Engine) Processed() uint64 { return e.processed } //lint:allow deadexport core's TestSeedStability fingerprints a run with it

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return len(e.heap) } //lint:allow deadexport core's region-stream test holds the event queue empty after a stream with it

// acquire takes a slot from the free list (or grows the arena) and
// fills it with the callback.
func (e *Engine) acquire(fn func(), argFn func(any), arg any) int32 {
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.fn, s.argFn, s.arg = fn, argFn, arg
	s.stopped = false
	return idx
}

// release recycles a slot: references are dropped (so callbacks and
// arguments do not outlive their event) and the generation counter is
// bumped to invalidate outstanding Timer handles.
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.fn, s.argFn, s.arg = nil, nil, nil
	s.stopped = false
	s.gen++
	e.free = append(e.free, idx)
}

// push inserts one event into the heap, ordered by (at, seq).
func (e *Engine) push(it heapItem) {
	h := append(e.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at < it.at || (h[p].at == it.at && h[p].seq < it.seq) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	e.heap = h
}

// pop removes and returns the earliest event.
func (e *Engine) pop() heapItem {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	e.heap = h[:n]
	if n == 0 {
		return top
	}
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n {
			if h[r].at < h[l].at || (h[r].at == h[l].at && h[r].seq < h[l].seq) {
				c = r
			}
		}
		if last.at < h[c].at || (last.at == h[c].at && last.seq < h[c].seq) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// Schedule runs fn after delay of simulated time. A negative delay is
// treated as zero. Events scheduled for the same instant run in FIFO
// order.
func (e *Engine) Schedule(delay Time, fn func()) {
	if fn == nil {
		panic("sim: Schedule called with nil function")
	}
	if delay < 0 {
		delay = 0
	}
	e.seq++
	e.push(heapItem{at: e.now + delay, seq: e.seq, slot: e.acquire(fn, nil, nil)})
}

// ScheduleArg runs fn(arg) after delay of simulated time. It is the
// allocation-free alternative to Schedule for hot paths: fn is a
// prebound (package-level or pre-constructed) function and arg carries
// the per-event state, so no closure needs to be allocated per event.
// Passing a pointer in arg does not allocate.
func (e *Engine) ScheduleArg(delay Time, fn func(any), arg any) {
	if fn == nil {
		panic("sim: ScheduleArg called with nil function")
	}
	if delay < 0 {
		delay = 0
	}
	e.seq++
	e.push(heapItem{at: e.now + delay, seq: e.seq, slot: e.acquire(nil, fn, arg)})
}

// ScheduleAt runs fn at absolute simulated time at. Times in the past
// are clamped to the present.
func (e *Engine) ScheduleAt(at Time, fn func()) {
	e.Schedule(at-e.now, fn)
}

// Step executes the next pending event and returns true, or returns
// false if the queue is empty.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	it := e.pop()
	if it.at > e.now {
		e.now = it.at
	}
	e.processed++
	s := &e.slots[it.slot]
	fn, argFn, arg, stopped := s.fn, s.argFn, s.arg, s.stopped
	// Release before running: the callback may schedule new events
	// (reusing this slot) and Timer handles must observe the fired
	// state from inside their own callback.
	e.release(it.slot)
	if stopped {
		return true
	}
	if argFn != nil {
		argFn(arg)
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() { //lint:allow deadexport every simulator test drains its engine with it; the figures run the clock through RunUntil and RunFor
	if e.running {
		panic("sim: Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.Step() {
	}
}

// RunUntil executes events whose time is <= deadline; events scheduled
// later remain queued and the clock is advanced to deadline.
func (e *Engine) RunUntil(deadline Time) {
	if e.running {
		panic("sim: RunUntil re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the simulation by d of simulated time.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// String describes the engine state, for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%v pending=%d processed=%d}", e.now, len(e.heap), e.processed)
}

// Timer is a cancellable one-shot event, the building block for
// retransmission timeouts: arm it when a message leaves, stop it when
// the acknowledgement arrives. A stopped timer's callback never runs;
// the underlying heap event still drains (as a no-op), so cancelling
// is O(1) and never disturbs event ordering.
//
// Timer is a value handle into the engine's slot arena: creating one
// allocates nothing, and a fired timer's slot is recycled for future
// events (the generation counter keeps stale handles inert). The zero
// Timer behaves as already stopped.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// AfterFunc schedules fn to run once after delay. The returned Timer
// cancels the callback if stopped before it fires.
func (e *Engine) AfterFunc(delay Time, fn func()) Timer {
	if fn == nil {
		panic("sim: AfterFunc called with nil function")
	}
	if delay < 0 {
		delay = 0
	}
	e.seq++
	idx := e.acquire(fn, nil, nil)
	e.push(heapItem{at: e.now + delay, seq: e.seq, slot: idx})
	return Timer{eng: e, slot: idx, gen: e.slots[idx].gen}
}

// Stop cancels the timer if it has not fired yet. It is idempotent.
func (t Timer) Stop() {
	if t.eng == nil {
		return
	}
	if s := &t.eng.slots[t.slot]; s.gen == t.gen {
		s.stopped = true
	}
}

// Stopped reports whether the timer has fired or been cancelled.
func (t Timer) Stopped() bool {
	if t.eng == nil {
		return true
	}
	s := &t.eng.slots[t.slot]
	return s.gen != t.gen || s.stopped
}
