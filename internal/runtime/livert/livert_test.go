package livert_test

import (
	"sync"
	"testing"
	"time"

	"landmarkdht/internal/runtime/livert"
)

func newRT(t *testing.T) *livert.Runtime {
	t.Helper()
	rt := livert.New(livert.Config{Seed: 1})
	t.Cleanup(rt.Close)
	return rt
}

// TestSendContract pins what a message delivery relies on, now that a
// send into a node is a posted task (a netrt link reader posts each
// decoded frame with Schedule): a prebound delivery posted with
// ScheduleArg(0) never runs inside the call, runs on the executor, and
// runs in posting order, ahead of a task posted after it.
func TestSendContract(t *testing.T) {
	t.Run("next task on the executor", func(t *testing.T) {
		rt := newRT(t)
		var order []string
		var inside bool
		if err := rt.Do(func() {
			ran := false
			rt.ScheduleArg(0, func(arg any) {
				ran = true
				order = append(order, arg.(string))
			}, "deliver")
			inside = ran
			rt.Schedule(0, func() { order = append(order, "after") })
		}); err != nil {
			t.Fatal(err)
		}
		// order is only ever touched by executor tasks (the race
		// detector holds that); an empty Do drains what was queued.
		if err := rt.Do(func() {}); err != nil {
			t.Fatal(err)
		}
		if inside {
			t.Fatal("deliver ran inside ScheduleArg")
		}
		if len(order) != 2 || order[0] != "deliver" || order[1] != "after" {
			t.Fatalf("task order %v, want [deliver after]", order)
		}
	})
}

// TestDeliveriesSerializeOnExecutor floods the executor with tasks
// posted from many goroutines, as a node's link readers post frames, and
// checks the callbacks never overlap — the single-threaded protocol
// contract.
func TestDeliveriesSerializeOnExecutor(t *testing.T) {
	rt := newRT(t)
	const senders, perSender = 8, 25
	var (
		inFlight, overlaps, delivered int
		mu                            sync.Mutex
		wg                            sync.WaitGroup
		done                          = make(chan struct{})
	)
	deliver := func(any) {
		mu.Lock()
		inFlight++
		if inFlight > 1 {
			overlaps++
		}
		mu.Unlock()
		mu.Lock()
		inFlight--
		delivered++
		if delivered == senders*perSender {
			close(done)
		}
		mu.Unlock()
	}
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				rt.ScheduleArg(0, deliver, nil)
			}
		}()
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		t.Fatalf("only %d of %d deliveries ran", delivered, senders*perSender)
	}
	if overlaps != 0 {
		t.Fatalf("%d deliveries overlapped; executor must serialize", overlaps)
	}
}

// TestTimerStop arms a retransmission-style timer and cancels it from
// the executor before it fires.
func TestTimerStop(t *testing.T) {
	rt := newRT(t)
	fired := make(chan struct{}, 1)
	var tm interface {
		Stop()
		Stopped() bool
	}
	if err := rt.Do(func() {
		tm = rt.AfterFunc(50*time.Millisecond, func() { fired <- struct{}{} })
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Do(tm.Stop); err != nil {
		t.Fatal(err)
	}
	if !tm.Stopped() {
		t.Fatal("Stopped() false after Stop")
	}
	select {
	case <-fired:
		t.Fatal("stopped timer fired")
	case <-time.After(200 * time.Millisecond):
	}
}

// TestAwait covers the three completion modes: finish callback, op
// error, and timeout.
func TestAwait(t *testing.T) {
	rt := newRT(t)
	if err := rt.Await(5*time.Second, func(finish func()) error {
		rt.Schedule(0, finish)
		return nil
	}); err != nil {
		t.Fatalf("finish path: %v", err)
	}
	wantErr := "nothing to do"
	if err := rt.Await(5*time.Second, func(func()) error {
		return errAwait(wantErr)
	}); err == nil || err.Error() != wantErr {
		t.Fatalf("error path: got %v", err)
	}
	if err := rt.Await(20*time.Millisecond, func(func()) error {
		return nil // never finishes
	}); err == nil {
		t.Fatal("timeout path: no error")
	}
}

type errAwait string

func (e errAwait) Error() string { return string(e) }

// TestCloseRejectsWork checks Do and Await fail fast after Close and
// that Close is idempotent.
func TestCloseRejectsWork(t *testing.T) {
	rt := livert.New(livert.Config{Seed: 1})
	rt.Close()
	rt.Close()
	if err := rt.Do(func() {}); err != livert.ErrClosed {
		t.Fatalf("Do after Close: %v", err)
	}
	if err := rt.Await(time.Second, func(func()) error { return nil }); err != livert.ErrClosed {
		t.Fatalf("Await after Close: %v", err)
	}
}
