package runtime

import (
	"math/rand"
	"time"
)

// FaultPolicy is the runtime-agnostic fault description, and the only
// one. The protocol-level faults (Drop, Duplicate, Jitter/Spike,
// Partitions) are injected by the overlay, which reads the policy
// itself (chord.Config.Faults) and copies it when the network is
// built: its decisions draw from the driving runtime's seeded random
// source, so a simulated run replays them exactly (and
// byte-identically to no policy at all when every field is zero). The
// transport-level faults (FrameDrop, KillConn, Seed) model
// failures below the protocol and need a transport to act on: netrt's
// TCP links consume them through LinkFaults; the simulator moves no
// bytes, and the public constructor rejects the two fields there.
type FaultPolicy struct {
	// Drop is the per-message loss probability (every message kind).
	Drop float64
	// Duplicate is the probability that a query or acknowledgement
	// message is delivered twice (the kinds whose receive paths are
	// idempotent by protocol design). The second copy arrives after
	// twice the first copy's delay, like a spurious retransmission.
	Duplicate float64
	// Jitter adds a uniform random extra delay in [0, Jitter) per
	// message; SpikeProb/SpikeDelay add rare large delays.
	Jitter     time.Duration
	SpikeProb  float64
	SpikeDelay time.Duration
	// Partitions are timed windows during which messages crossing a
	// host-group boundary are all lost.
	Partitions []PartitionWindow
	// FrameDrop is a link reader's probability of discarding a
	// received frame after it crossed the connection (a failure the
	// sender cannot observe).
	FrameDrop float64
	// KillConn is a link reader's probability, per received frame, of
	// killing its connection — every frame in flight on it is lost and
	// the link redials.
	KillConn float64
	// Seed seeds the links' fault sources (frame drops and connection
	// kills happen on reader goroutines, outside the protocol's
	// single-threaded random source).
	Seed int64
}

// PartitionWindow separates a host group from the rest of the network
// during [From, To) — once, or repeating with period Every.
type PartitionWindow struct {
	Hosts    []int
	From, To time.Duration
	// Every, when positive, repeats the window: it is active whenever
	// (now-From) mod Every falls inside the window's length. Zero
	// means a single window.
	Every time.Duration
}

// Active reports whether the window is partitioning at time now.
func (w PartitionWindow) Active(now time.Duration) bool {
	if now < w.From {
		return false
	}
	if w.Every > 0 {
		return (now-w.From)%w.Every < w.To-w.From
	}
	return now < w.To
}

// LinkFaults is the frame-drop / connection-kill decision path of a
// link's read loop (netrt's TCP links). Each reader owns one LinkFaults
// seeded by the policy's Seed XOR the peer's identity, so decisions
// never touch the executor's protocol random source and a given
// (seed, peer) pair always draws the same fault sequence.
//
// A nil *LinkFaults is valid and injects nothing, so read loops call
// DropFrame/KillConn unconditionally.
type LinkFaults struct {
	rng  *rand.Rand
	drop float64
	kill float64
}

// NewLinkFaults builds the fault hook for one reader. It returns nil —
// inject nothing — when the policy configures no transport-level
// faults.
func NewLinkFaults(pol *FaultPolicy, peer uint64) *LinkFaults {
	if pol == nil || (pol.FrameDrop == 0 && pol.KillConn == 0) {
		return nil
	}
	return &LinkFaults{
		rng:  rand.New(rand.NewSource(pol.Seed ^ int64(peer))),
		drop: pol.FrameDrop,
		kill: pol.KillConn,
	}
}

// DropFrame draws the per-frame discard decision. Nil-safe.
func (f *LinkFaults) DropFrame() bool {
	return f != nil && f.drop > 0 && f.rng.Float64() < f.drop
}

// KillConn draws the per-frame connection-kill decision. Nil-safe.
func (f *LinkFaults) KillConn() bool {
	return f != nil && f.kill > 0 && f.rng.Float64() < f.kill
}
