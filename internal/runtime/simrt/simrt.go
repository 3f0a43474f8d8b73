// Package simrt adapts a sim.Engine to the runtime seams: the
// discrete-event simulator becomes one Runtime/Transport
// implementation among several, and the protocol layers stop depending
// on it directly.
//
// The adapter is a strict pass-through. Every Clock call forwards to
// the engine method of the same name in the same order, and Send is
// exactly the engine's ScheduleArg, so a simulation driven through
// simrt replays byte-identically to one that called the engine
// directly (TestSeedStability pins this). The zero-allocation
// contract of the engine's hot paths is preserved: the adapter is
// pointer-shaped (it boxes into the interfaces without allocating)
// and Send passes the prebound deliver/arg pair straight through.
package simrt

import (
	"math/rand"
	"time"

	"landmarkdht/internal/runtime"
	"landmarkdht/internal/sim"
)

// RT wraps one engine as a runtime.Runtime and runtime.Transport.
type RT struct {
	eng *sim.Engine
}

// New returns the adapter for eng.
func New(eng *sim.Engine) *RT { return &RT{eng: eng} }

// Engine returns the wrapped engine (drivers need Run/RunUntil, which
// are deliberately not part of the runtime seams).
func (r *RT) Engine() *sim.Engine { return r.eng }

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

// Send implements runtime.Transport: delivery is one engine event at
// now+delay. Message sizes are charged by the overlay's traffic
// accounting before Send is reached.
func (r *RT) Send(_ uint64, delay time.Duration, deliver func(any), arg any) {
	r.eng.ScheduleArg(delay, deliver, arg)
}
