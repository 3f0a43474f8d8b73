package xfer

import (
	"slices"
	"testing"
	"time"

	"landmarkdht/internal/runtime"
)

// manualClock is a Clock whose timers fire only when the test says so.
type manualClock struct{ timers []*manualTimer }

type manualTimer struct {
	fn      func()
	stopped bool
}

func (t *manualTimer) Stop()         { t.stopped = true }
func (t *manualTimer) Stopped() bool { return t.stopped }

func (c *manualClock) Now() time.Duration { return 0 }
func (c *manualClock) Schedule(time.Duration, func()) {
	panic("xfer schedules nothing but its idle timer")
}
func (c *manualClock) ScheduleArg(time.Duration, func(any), any) {
	panic("xfer schedules nothing but its idle timer")
}
func (c *manualClock) AfterFunc(_ time.Duration, fn func()) runtime.Timer {
	t := &manualTimer{fn: fn}
	c.timers = append(c.timers, t)
	return t
}

// live counts the armed timers.
func (c *manualClock) live() int {
	n := 0
	for _, t := range c.timers {
		if !t.stopped {
			n++
		}
	}
	return n
}

// fire runs the armed timer, if there is one.
func (c *manualClock) fire() {
	for _, t := range c.timers {
		if !t.stopped {
			t.stopped = true
			t.fn()
			return
		}
	}
}

// A stream nobody acknowledges runs the idle hook once per round,
// resending every chunk of the window each time, and gives up after
// Rounds rounds with every chunk handed back.
func TestSenderGivesUpAfterRounds(t *testing.T) {
	clk := &manualClock{}
	var sends, idles int
	var back []int
	s := NewSender(clk, 6, Policy{Idle: time.Second, Rounds: 3}, Hooks{
		Send:   func(int, bool) { sends++ },
		Idle:   func() bool { idles++; return true },
		Done:   func() { t.Fatal("done without an ack") },
		GiveUp: func(unacked []int) { back = unacked },
	})
	s.Start()
	for range 10 {
		clk.fire()
	}
	if idles != 3 || sends != Window*4 {
		t.Fatalf("%d idle rounds and %d sends, want 3 and %d", idles, sends, Window*4)
	}
	if !slices.Equal(back, []int{0, 1, 2, 3, 4, 5}) || !s.Ended() || clk.live() != 0 {
		t.Fatalf("handed back %v, ended %v, %d timers armed", back, s.Ended(), clk.live())
	}
}

// FuzzStream drives a sender and a receiver through a schedule the
// fuzzer chooses — deliveries in any order, losses, duplicates, idle
// rounds and refusals from the idle hook — and holds the engine to its
// contract: never more than Window chunks in flight and never more
// than one idle timer armed, each chunk taken once (by the receiver,
// or by the give-up hook the way core's fallback takes what the
// receiver never did), an Ack reporting news once per chunk, the
// stream ending at most once, and a give-up handing back exactly the
// chunks never acknowledged.
func FuzzStream(f *testing.F) {
	f.Add([]byte{5, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{9, 1, 0, 3, 3, 3, 0, 0, 0, 0})
	f.Add([]byte{12, 4, 0, 2, 0, 0, 0, 1, 0, 3, 0, 0, 4, 3, 0, 0, 0})
	f.Add([]byte{20, 0, 5, 3, 0, 0, 2, 1, 9, 0, 7, 3, 3, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, sched []byte) {
		if len(sched) < 3 {
			return
		}
		chunks, rounds := 1+int(sched[0]%24), int(sched[1]%6)
		sched = sched[2:]
		type msg struct {
			ack bool
			seq int
		}
		clk := &manualClock{}
		var (
			net     []msg
			shipped = make([]bool, chunks)
			taken   = make([]int, chunks)
			acked   = make([]bool, chunks)
			ends    int
			done    bool
			idleOK  = true
			s       *Sender
		)
		rx := NewReceiver(chunks)
		s = NewSender(clk, chunks, Policy{Idle: time.Second, Rounds: rounds}, Hooks{
			Send: func(seq int, resend bool) {
				if resend != shipped[seq] {
					t.Fatalf("chunk %d sent with resend=%v after shipped=%v", seq, resend, shipped[seq])
				}
				if s.InFlight() > Window {
					t.Fatalf("%d chunks in flight", s.InFlight())
				}
				shipped[seq] = true
				net = append(net, msg{seq: seq})
			},
			Idle: func() bool { return idleOK },
			Done: func() { ends++; done = true },
			GiveUp: func(unacked []int) {
				ends++
				var want []int
				for seq, ok := range acked {
					if !ok {
						want = append(want, seq)
					}
				}
				if !slices.Equal(unacked, want) {
					t.Fatalf("handed back %v, unacked %v", unacked, want)
				}
				for _, seq := range unacked {
					if rx.Take(seq) {
						taken[seq]++
					}
				}
			},
		})
		s.Start()
		for i := 0; i+1 < len(sched); i += 2 {
			op, arg := sched[i]%5, int(sched[i+1])
			switch {
			case op == 3:
				clk.fire()
			case op == 4:
				idleOK = !idleOK
			case len(net) == 0:
			default:
				k := arg % len(net)
				m := net[k]
				switch op {
				case 1: // lost
					net = slices.Delete(net, k, k+1)
				case 2: // duplicated
					net = append(net, m)
				default: // delivered, out of order when k > 0
					net = slices.Delete(net, k, k+1)
					if !m.ack {
						if rx.Take(m.seq) {
							taken[m.seq]++
						}
						net = append(net, msg{ack: true, seq: m.seq})
					} else if s.Ack(m.seq) {
						if acked[m.seq] {
							t.Fatalf("chunk %d acked as news twice", m.seq)
						}
						acked[m.seq] = true
					}
				}
			}
			if s.InFlight() > Window || clk.live() > 1 {
				t.Fatalf("%d chunks in flight, %d timers armed", s.InFlight(), clk.live())
			}
		}
		if ends > 1 {
			t.Fatalf("stream ended %d times", ends)
		}
		if done && slices.Contains(acked, false) {
			t.Fatalf("done with unacked chunks: %v", acked)
		}
		for seq, n := range taken {
			if n > 1 || (ends == 1 && n != 1) {
				t.Fatalf("chunk %d taken %d times (ended %d)", seq, n, ends)
			}
		}
		if s.Ended() != (ends == 1) || (s.Ended() && clk.live() != 0) {
			t.Fatalf("ended %v after %d ends, %d timers armed", s.Ended(), ends, clk.live())
		}
	})
}
