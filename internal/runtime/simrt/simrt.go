// Package simrt adapts a sim.Engine to the runtime seams: the
// discrete-event simulator is the runtime core and chord run on, and the
// protocol layers stop depending on it directly.
//
// The adapter is a strict pass-through. Every Clock call forwards to
// the engine method of the same name in the same order — chord delivers
// each message through ScheduleArg — so a simulation driven through
// simrt replays byte-identically to one that called the engine
// directly (TestSeedStability pins this). The zero-allocation contract
// of the engine's hot paths is preserved: the adapter is pointer-shaped
// (it boxes into the interfaces without allocating) and ScheduleArg
// passes the prebound fn/arg pair straight through.
//
// The bridges of runtime.Driver (Do, Await) and Sleep run inline and
// spend simulated time: the goroutine driving a simulation is the
// protocol's execution context.
package simrt

import (
	"fmt"
	"math/rand"
	"time"

	"landmarkdht/internal/runtime"
	"landmarkdht/internal/sim"
)

// RT wraps one engine as a runtime.Driver: the seam the protocol is
// written against, and the bridges its driver uses.
type RT struct {
	eng *sim.Engine
}

// New returns the adapter for eng.
func New(eng *sim.Engine) *RT { return &RT{eng: eng} }

// Now returns the current simulated time.
func (r *RT) Now() time.Duration { return r.eng.Now() }

// Schedule runs fn after delay of simulated time.
func (r *RT) Schedule(delay time.Duration, fn func()) { r.eng.Schedule(delay, fn) }

// ScheduleArg runs fn(arg) after delay of simulated time, without
// allocating a closure.
func (r *RT) ScheduleArg(delay time.Duration, fn func(any), arg any) {
	r.eng.ScheduleArg(delay, fn, arg)
}

// AfterFunc schedules a cancellable one-shot callback. The returned
// handle is the engine's value-typed Timer.
func (r *RT) AfterFunc(delay time.Duration, fn func()) runtime.Timer {
	return r.eng.AfterFunc(delay, fn)
}

// Rand returns the engine's seeded random source.
func (r *RT) Rand() *rand.Rand { return r.eng.Rand() }

// Do runs fn at once.
func (r *RT) Do(fn func()) error {
	fn()
	return nil
}

// Await runs op at once, then advances the engine until op's completion
// callback has fired or timeout of simulated time has passed. The clock
// moves in whole seconds so that background timers (load balancing)
// cannot stall completion detection, and so it stands a little past the
// completion when Await returns.
func (r *RT) Await(timeout time.Duration, op func(finish func()) error) error {
	done := false
	if err := op(func() { done = true }); err != nil {
		return err
	}
	deadline := r.eng.Now()
	for end := deadline + timeout; !done; {
		if deadline >= end {
			return fmt.Errorf("simrt: operation did not complete within %v of simulated time", timeout)
		}
		deadline += time.Second
		r.eng.RunUntil(deadline)
	}
	return nil
}

// Sleep lets d of simulated time pass.
func (r *RT) Sleep(d time.Duration) { r.eng.RunFor(d) }

// Close does nothing: an engine holds no goroutine, timer or file.
func (r *RT) Close() {}
