package runtime_test

import (
	"errors"
	"testing"
	"time"

	"landmarkdht/internal/runtime"
	"landmarkdht/internal/runtime/livert"
	"landmarkdht/internal/runtime/simrt"
	"landmarkdht/internal/sim"
)

// TestDriverContract is the part of runtime.Driver's contract that reads
// the same on both implementations — what livert's TestSendContract and
// TestAwait hold of the live runtime, where the cases coincide — run on
// each: code written against Driver cannot tell them apart. short is a
// span worth waiting out in the runtime's own time.
func TestDriverContract(t *testing.T) {
	for name, tc := range map[string]struct {
		open  func() runtime.Driver
		short time.Duration
	}{
		"simrt":  {func() runtime.Driver { return simrt.New(sim.NewEngine(1)) }, 3 * time.Second},
		"livert": {func() runtime.Driver { return livert.New(livert.Config{Seed: 1}) }, 20 * time.Millisecond},
	} {
		t.Run(name, func(t *testing.T) {
			d := tc.open()
			defer d.Close()

			// Do has run its function when it returns. A task it schedules
			// never runs inside the call; with nothing to wait for it runs
			// on the protocol's context as the next task, ahead of one
			// scheduled after it.
			var order []string
			inside, entered := false, false
			if err := d.Do(func() {
				entered = true
				ran := false
				d.ScheduleArg(0, func(arg any) {
					ran = true
					order = append(order, arg.(string))
				}, "first")
				inside = ran
				d.Schedule(0, func() { order = append(order, "after") })
			}); err != nil || !entered {
				t.Fatalf("Do: err %v, ran its function %v", err, entered)
			}
			// A completion scheduled now runs behind everything queued so
			// far (order is only touched on the protocol's context; under
			// livert the race detector holds that).
			if err := d.Await(10*time.Second, func(finish func()) error {
				d.Schedule(0, finish)
				return nil
			}); err != nil {
				t.Fatalf("draining: %v", err)
			}
			if inside || len(order) != 2 || order[0] != "first" || order[1] != "after" {
				t.Fatalf("task ran inside ScheduleArg: %v; task order %v, want [first after]", inside, order)
			}

			// Await's three ways to return: the completion fired — behind a
			// timer of the runtime's own time, which Await must let pass —
			// op's own error as it is, without waiting, and the timeout.
			fired := false
			if err := d.Await(10*time.Second, func(finish func()) error {
				d.AfterFunc(tc.short, func() { fired = true; finish() })
				return nil
			}); err != nil || !fired {
				t.Fatalf("finish path: err %v, completion fired %v", err, fired)
			}
			want := errors.New("nothing to do")
			if err := d.Await(10*time.Second, func(func()) error { return want }); err != want {
				t.Fatalf("error path: got %v, want op's error", err)
			}
			if err := d.Await(tc.short, func(func()) error { return nil }); err == nil {
				t.Fatal("timeout path: an operation that never completes returned no error")
			}
		})
	}
}
