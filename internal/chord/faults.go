package chord

import (
	"math/rand"
	"slices"
	"time"

	"landmarkdht/internal/runtime"
)

// faults is a Network's fault injection: a copy of the
// runtime.FaultPolicy passed through Config.Faults, taken once by
// NewNetwork, so a caller that edits its policy afterwards changes
// nothing. The overlay reads the policy's protocol-level faults:
//
//   - message loss: each message is dropped with probability Drop (the
//     sender is NOT told synchronously; the loss surfaces at the
//     would-be delivery time through the sender's loss callback,
//     mimicking a timeout-detectable loss),
//   - duplication: a query or acknowledgement message is delivered
//     twice with probability Duplicate,
//   - latency faults: a uniform jitter up to Jitter per message, plus
//     rare spikes of SpikeDelay with probability SpikeProb, and
//   - partitions: timed windows during which messages crossing the
//     boundary between a host group and the rest of the network are
//     all lost.
//
// The transport-level faults (FrameDrop, KillConn) are not the
// overlay's and are not read. Every decision draws from the driving
// runtime's random source, and only when its probability is non-zero:
// a simulated trial replays byte-identically for a given seed, and a
// zero policy draws nothing, exactly like no policy at all. Crash and
// rejoin schedules are membership events, driven by the harness
// through System.CrashNode / JoinNode.
type faults struct {
	pol runtime.FaultPolicy
	// hosts[i] is the host group of pol.Partitions[i].
	hosts []map[int]bool
}

// newFaults copies p; nil injects nothing.
func newFaults(p *runtime.FaultPolicy) *faults {
	if p == nil {
		return nil
	}
	f := &faults{pol: *p}
	f.pol.Partitions = slices.Clone(p.Partitions)
	for _, w := range p.Partitions {
		set := make(map[int]bool, len(w.Hosts))
		for _, h := range w.Hosts {
			set[h] = true
		}
		f.hosts = append(f.hosts, set)
	}
	return f
}

// lost decides whether a message between the two hosts, sent at time
// now, is lost: partitions first, then one loss draw.
func (f *faults) lost(rng *rand.Rand, fromHost, toHost int, now time.Duration) bool {
	for i, w := range f.pol.Partitions {
		if w.Active(now) && f.hosts[i][fromHost] != f.hosts[i][toHost] {
			return true
		}
	}
	return f.pol.Drop > 0 && rng.Float64() < f.pol.Drop
}

// extraDelay draws the message's latency fault (jitter plus an
// occasional spike).
func (f *faults) extraDelay(rng *rand.Rand) time.Duration {
	var d time.Duration
	if f.pol.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(f.pol.Jitter)))
	}
	if f.pol.SpikeProb > 0 && rng.Float64() < f.pol.SpikeProb {
		d += f.pol.SpikeDelay
	}
	return d
}

// duplicated decides whether a surviving message is delivered twice.
// Only query and acknowledgement messages are: their receive paths are
// idempotent by protocol design (subquery units and result merges
// settle exactly once; a duplicate ack is a no-op). Duplicating
// storage-mutating kinds would require receiver-side dedup state the
// paper's protocol does not carry.
func (f *faults) duplicated(rng *rand.Rand, kind MsgKind) bool {
	return f.pol.Duplicate > 0 && (kind == KindQuery || kind == KindAck) &&
		rng.Float64() < f.pol.Duplicate
}
