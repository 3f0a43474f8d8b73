package chord

import (
	"math/rand"
	"time"

	"landmarkdht/internal/runtime"
)

// FaultPlan is a seeded, deterministic fault-injection policy attached
// to a Network through Config.Faults. Every decision (whether a message
// is lost, how much extra latency it suffers) is drawn from the driving
// runtime's random source, so a simulated trial with the same seed and
// the same plan replays byte-identically.
//
// The plan can express three failure modes:
//
//   - message loss: each message of kind k is dropped with probability
//     drop[k] (the sender is NOT told synchronously; the loss surfaces
//     at the would-be delivery time through the sender's loss
//     callback, mimicking a timeout-detectable loss),
//   - latency faults: a uniform jitter up to Jitter per message, plus
//     rare spikes of SpikeDelay with probability SpikeProb (a slow or
//     congested link), and
//   - partitions: timed windows during which messages crossing the
//     boundary between a host group and the rest of the network are
//     all lost.
//
// Crash/rejoin schedules are not part of the plan: they are membership
// events, driven by the harness through System.CrashNode / JoinNode.
type FaultPlan struct {
	drop       [numKinds]float64
	dup        float64
	jitter     time.Duration
	spikeProb  float64
	spikeDelay time.Duration
	partitions []partitionWindow

	// Dropped counts messages lost to injected loss or partitions,
	// by kind. Read-only for callers.
	Dropped [numKinds]int64
	// Duplicated counts messages delivered twice. Read-only.
	Duplicated int64
}

// partitionWindow separates a host group from everything else during
// [from, to) — once, or repeating with period every.
type partitionWindow struct {
	hosts           map[int]bool
	from, to, every time.Duration
}

// active reports whether the window is partitioning at time now.
func (p partitionWindow) active(now time.Duration) bool {
	if now < p.from {
		return false
	}
	if p.every > 0 {
		return (now-p.from)%p.every < p.to-p.from
	}
	return now < p.to
}

// NewFaultPlan returns an empty plan (no faults). Configure it with the
// chainable setters.
func NewFaultPlan() *FaultPlan { return &FaultPlan{} }

// DropAll sets the same loss probability for every message kind.
func (f *FaultPlan) DropAll(p float64) *FaultPlan {
	for k := range f.drop {
		f.drop[k] = p
	}
	return f
}

// Drop sets the loss probability for one message kind.
func (f *FaultPlan) Drop(kind MsgKind, p float64) *FaultPlan {
	f.drop[kind] = p
	return f
}

// Jitter adds a uniform random extra delay in [0, d) to every message.
func (f *FaultPlan) Jitter(d time.Duration) *FaultPlan {
	f.jitter = d
	return f
}

// Spike makes each message suffer an extra delay of d with probability
// p (a latency spike, e.g. a congested or lossy-with-retransmit link).
func (f *FaultPlan) Spike(p float64, d time.Duration) *FaultPlan {
	f.spikeProb = p
	f.spikeDelay = d
	return f
}

// Partition separates the given host group from the rest of the
// network during the window [from, to) of simulated time: any message
// with exactly one endpoint inside the group is lost.
func (f *FaultPlan) Partition(hosts []int, from, to time.Duration) *FaultPlan {
	return f.PartitionEvery(hosts, from, to, 0)
}

// PartitionEvery is Partition with a repeating window: starting at
// from, the group is cut off for to-from out of every `every` elapsed
// (every = 0 degenerates to a single window).
func (f *FaultPlan) PartitionEvery(hosts []int, from, to, every time.Duration) *FaultPlan {
	set := make(map[int]bool, len(hosts))
	for _, h := range hosts {
		set[h] = true
	}
	f.partitions = append(f.partitions, partitionWindow{hosts: set, from: from, to: to, every: every})
	return f
}

// Duplicate makes each query and acknowledgement message delivered
// twice with probability p — the kinds whose receive paths are
// idempotent by protocol design (subquery units and result merges
// settle exactly once; a duplicate ack is a no-op). Duplicating
// storage-mutating kinds would require receiver-side dedup state the
// paper's protocol does not carry, so those kinds are never doubled.
func (f *FaultPlan) Duplicate(p float64) *FaultPlan {
	f.dup = p
	return f
}

// TotalDropped sums the injected losses over all message kinds.
func (f *FaultPlan) TotalDropped() int64 {
	var total int64
	for _, n := range f.Dropped {
		total += n
	}
	return total
}

// lost decides whether a message of the given kind between the two
// hosts, sent at time now, is lost. It consumes at most one random
// draw (only when the kind has a non-zero loss probability), keeping
// the draw sequence stable across configurations that only change
// probabilities.
func (f *FaultPlan) lost(rng *rand.Rand, kind MsgKind, fromHost, toHost int, now time.Duration) bool {
	for _, p := range f.partitions {
		if p.active(now) && p.hosts[fromHost] != p.hosts[toHost] {
			f.Dropped[kind]++
			return true
		}
	}
	if f.drop[kind] > 0 && rng.Float64() < f.drop[kind] {
		f.Dropped[kind]++
		return true
	}
	return false
}

// extraDelay draws the message's latency fault (jitter plus an
// occasional spike).
func (f *FaultPlan) extraDelay(rng *rand.Rand) time.Duration {
	var d time.Duration
	if f.jitter > 0 {
		d += time.Duration(rng.Int63n(int64(f.jitter)))
	}
	if f.spikeProb > 0 && rng.Float64() < f.spikeProb {
		d += f.spikeDelay
	}
	return d
}

// duplicated decides whether a surviving message is delivered twice.
// Like lost, it consumes a draw only when duplication is configured
// and the kind is eligible, keeping disabled configurations
// byte-identical.
func (f *FaultPlan) duplicated(rng *rand.Rand, kind MsgKind) bool {
	if f.dup <= 0 {
		return false
	}
	switch kind {
	case KindQuery, KindAck:
	default:
		return false
	}
	if rng.Float64() < f.dup {
		f.Duplicated++
		return true
	}
	return false
}

// FaultPlanFromPolicy translates the runtime-agnostic fault policy
// (internal/runtime.FaultPolicy) into a chord fault plan — the
// delegation that lets one policy describe faults for the simulator and
// for netrt's links alike: the protocol-level faults (drop, duplicate,
// delay, partition) inject here; the policy's transport-level faults
// (frame drops, connection kills) are not the overlay's and are not
// read. A zero policy produces a
// plan that never draws from the random source, so replay stays
// byte-identical to running with no plan at all.
func FaultPlanFromPolicy(p *runtime.FaultPolicy) *FaultPlan {
	f := NewFaultPlan().
		DropAll(p.Drop).
		Jitter(p.Jitter).
		Spike(p.SpikeProb, p.SpikeDelay).
		Duplicate(p.Duplicate)
	for _, w := range p.Partitions {
		f.PartitionEvery(w.Hosts, w.From, w.To, w.Every)
	}
	return f
}
