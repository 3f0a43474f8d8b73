// Package xfer is the one windowed, per-chunk-acknowledged stream both
// stacks move a region with (DESIGN.md §14.3): core's migrations and
// handoffs, and netrt's replica repair (§15.3). A Sender owns the send
// window, settles each chunk once, finishes exactly once and applies
// the one retry policy; a Receiver records which chunks arrived, so a
// chunk is taken once however many copies land. What a chunk carries,
// how it travels and what happens when it lands stay with the caller.
// Both types are single-threaded: every method and hook runs on the
// caller's protocol executor.
package xfer

import (
	"time"

	"landmarkdht/internal/runtime"
)

const (
	// ChunkBytes is the target payload of one chunk. Far below
	// wire.MaxFramePayload: small enough to interleave with query traffic,
	// large enough that per-chunk overhead is negligible.
	ChunkBytes = 8 << 10
	// Window is the number of chunks in flight — sent and not yet
	// acknowledged — before the stream waits for an acknowledgement.
	Window = 4
)

// Policy is a caller's retry policy: the idle time after which unacked
// chunks are sent again, and how many such rounds in a row a stream
// survives before it gives up. Each caller has one Policy constant.
type Policy struct {
	Idle   time.Duration
	Rounds int
}

// Hooks are what the caller does at each step of a stream.
type Hooks struct {
	// Send ships chunk seq; resend reports that it was shipped before.
	Send func(seq int, resend bool)
	// Idle runs when Policy.Idle has passed with no new acknowledgement,
	// before the unacked chunks are sent again. Returning false gives up
	// at once.
	Idle func() bool
	// Done runs once every chunk has been acknowledged.
	Done func()
	// GiveUp runs instead of Done with the chunks never acknowledged, in
	// order.
	GiveUp func(unacked []int)
}

// Sender is the sending side of one stream of a fixed number of chunks.
type Sender struct {
	clk    runtime.Clock
	policy Policy
	hooks  Hooks
	acked  []bool
	sent   int // chunks [0, sent) have been shipped at least once
	nacked int
	rounds int // idle rounds since the last new acknowledgement
	timer  runtime.Timer
	fire   func() // s.idle, bound once so re-arming allocates no closure
	ended  bool
}

// NewSender returns a stream of chunks chunks (at least one); Start
// ships it.
func NewSender(clk runtime.Clock, chunks int, p Policy, h Hooks) *Sender {
	s := &Sender{clk: clk, policy: p, hooks: h, acked: make([]bool, chunks)}
	s.fire = s.idle
	return s
}

// Start fills the window and arms the idle timer.
func (s *Sender) Start() {
	s.pump()
	s.arm()
}

// Ended reports whether the stream has finished, given up or stopped.
func (s *Sender) Ended() bool { return s.ended }

// Acked reports whether chunk seq has been acknowledged.
func (s *Sender) Acked(seq int) bool { return s.acked[seq] }

// Ack settles chunk seq and reports whether it was news: an
// acknowledgement for a chunk not yet sent, one already settled, or one
// reaching an ended stream changes nothing. The last one finishes the
// stream; any other moves the window on and restores the retry budget.
func (s *Sender) Ack(seq int) bool {
	if s.ended || seq < 0 || seq >= s.sent || s.acked[seq] {
		return false
	}
	s.acked[seq] = true
	s.nacked++
	s.rounds = 0
	if s.nacked == len(s.acked) {
		s.Stop()
		s.hooks.Done()
		return true
	}
	s.pump()
	s.arm()
	return true
}

// GiveUp ends the stream now and hands the unacknowledged chunks to the
// GiveUp hook.
func (s *Sender) GiveUp() {
	if s.ended {
		return
	}
	s.Stop()
	unacked := make([]int, 0, len(s.acked)-s.nacked)
	for seq, ok := range s.acked {
		if !ok {
			unacked = append(unacked, seq)
		}
	}
	s.hooks.GiveUp(unacked)
}

// Stop ends the stream without running any hook.
func (s *Sender) Stop() {
	s.ended = true
	if s.timer != nil {
		s.timer.Stop()
	}
}

// pump ships chunks in order while the window has room.
func (s *Sender) pump() {
	for s.sent < len(s.acked) && s.sent-s.nacked < Window {
		s.sent++
		s.hooks.Send(s.sent-1, false)
	}
}

// arm restarts the idle timer from now.
func (s *Sender) arm() {
	if s.timer != nil {
		s.timer.Stop()
	}
	s.timer = s.clk.AfterFunc(s.policy.Idle, s.fire)
}

// idle is one idle round: give up once the budget is spent or the
// caller says so, else send every unacked chunk again.
func (s *Sender) idle() {
	if s.ended {
		return
	}
	s.rounds++
	if s.rounds > s.policy.Rounds || !s.hooks.Idle() {
		s.GiveUp()
		return
	}
	for seq := 0; seq < s.sent && !s.ended; seq++ {
		if !s.acked[seq] {
			s.hooks.Send(seq, true)
		}
	}
	if !s.ended {
		s.arm()
	}
}

// Receiver records which chunks of one stream have arrived.
type Receiver struct {
	got  []bool
	have int
}

// NewReceiver returns the record of a stream of chunks chunks.
func NewReceiver(chunks int) Receiver { return Receiver{got: make([]bool, chunks)} }

// Take records chunk seq and reports whether it is the first copy: the
// caller applies or stages a chunk only when Take says so. A sequence
// number out of range is never taken.
func (r *Receiver) Take(seq int) bool {
	if seq < 0 || seq >= len(r.got) || r.got[seq] {
		return false
	}
	r.got[seq] = true
	r.have++
	return true
}

// Complete reports whether every chunk has been taken.
func (r *Receiver) Complete() bool { return r.have == len(r.got) }
