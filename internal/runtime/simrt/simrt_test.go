package simrt_test

import (
	"testing"
	"time"

	"landmarkdht/internal/runtime/simrt"
	"landmarkdht/internal/sim"
)

// TestAwaitSpendsSimulatedTime pins how Await moves the clock (what the
// bridges share with livert's is runtime's TestDriverContract), which
// every clock-dependent output of a simulated Platform rests on: in
// whole seconds from where it stood, no further than the second in which
// the completion fired, not at all when op fails or completes inline,
// and exactly timeout when nothing completes.
func TestAwaitSpendsSimulatedTime(t *testing.T) {
	eng := sim.NewEngine(1)
	rt := simrt.New(eng)
	rt.Sleep(1500 * time.Millisecond)
	if eng.Now() != 1500*time.Millisecond {
		t.Fatalf("Sleep(1.5s) left the clock at %v", eng.Now())
	}
	if err := rt.Await(time.Minute, func(finish func()) error {
		rt.Schedule(2200*time.Millisecond, finish) // at 3.7s: inside the third step
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := 4500 * time.Millisecond; eng.Now() != want {
		t.Fatalf("after a completion at 3.7s the clock stands at %v, want %v", eng.Now(), want)
	}
	if err := rt.Await(time.Minute, func(finish func()) error { finish(); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := rt.Await(time.Minute, func(func()) error { return errNothing }); err != errNothing {
		t.Fatalf("op's error came back as %v", err)
	}
	if want := 4500 * time.Millisecond; eng.Now() != want {
		t.Fatalf("an inline completion and a failed op moved the clock to %v", eng.Now())
	}
	// A timer that keeps re-arming (load balancing does) must not keep
	// Await from noticing that its bound has passed.
	var tick func()
	tick = func() { rt.Schedule(300*time.Millisecond, tick) }
	tick()
	if err := rt.Await(10*time.Minute, func(func()) error { return nil }); err == nil {
		t.Fatal("an operation that never completes returned no error")
	}
	if want := 4500*time.Millisecond + 10*time.Minute; eng.Now() != want {
		t.Fatalf("a ten-minute timeout left the clock at %v, want %v", eng.Now(), want)
	}
	rt.Close()
	if err := rt.Do(func() {}); err != nil {
		t.Fatalf("Do after the no-op Close: %v", err)
	}
}

var errNothing = errNothingToDo{}

type errNothingToDo struct{}

func (errNothingToDo) Error() string { return "nothing to do" }

// TestSendOrdering pins what chord's message delivery rests on, on the
// one runtime core and chord run on: ScheduleArg never runs fn(arg)
// inside the call, runs it at now+delay, and runs a zero-delay event as
// the next event, ahead of a Schedule(0) made after it.
func TestSendOrdering(t *testing.T) {
	eng := sim.NewEngine(1)
	rt := simrt.New(eng)
	var order []string
	ran := false
	rt.ScheduleArg(0, func(arg any) {
		ran = true
		order = append(order, arg.(string))
	}, "deliver")
	if ran {
		t.Fatal("fn ran inside ScheduleArg")
	}
	rt.Schedule(0, func() { order = append(order, "after") })
	var at time.Duration
	rt.ScheduleArg(40*time.Millisecond, func(any) { at = eng.Now() }, nil)
	rt.Sleep(time.Second)
	if len(order) != 2 || order[0] != "deliver" || order[1] != "after" {
		t.Fatalf("task order %v, want [deliver after]", order)
	}
	if at != 40*time.Millisecond {
		t.Fatalf("a 40ms delivery ran at %v", at)
	}
}
