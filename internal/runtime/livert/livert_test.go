package livert_test

import (
	"sync"
	"sync/atomic"
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

// TestSendContract pins what runtime.Transport promises of Send on the
// live runtime: deliver(arg) never runs inside Send, runs on the
// executor, not before delay × LatencyScale (scale 0: as the next
// task), and is the only kind of task a full inbox sheds.
func TestSendContract(t *testing.T) {
	const wait = 10 * time.Second

	t.Run("next task on the executor", func(t *testing.T) {
		rt := newRT(t)
		var order []string
		var inside bool
		if err := rt.Do(func() {
			ran := false
			rt.Send(7, time.Hour, func(arg any) {
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
			t.Fatal("deliver ran inside Send")
		}
		if len(order) != 2 || order[0] != "deliver" || order[1] != "after" {
			t.Fatalf("task order %v, want [deliver after]", order)
		}
	})

	t.Run("scaled latency", func(t *testing.T) {
		rt := livert.New(livert.Config{Seed: 1, LatencyScale: 0.5})
		defer rt.Close()
		const delay = 80 * time.Millisecond
		at := make(chan time.Duration, 1)
		start := time.Now()
		rt.Send(7, delay, func(any) { at <- time.Since(start) }, nil)
		select {
		case got := <-at:
			if got < delay/2 {
				t.Fatalf("delivered after %v, before the scaled latency %v", got, delay/2)
			}
		case <-time.After(wait):
			t.Fatal("delivery never ran")
		}
	})

	t.Run("shedding", func(t *testing.T) {
		rt := livert.New(livert.Config{Seed: 1, MaxInbox: 1})
		defer rt.Close()
		stalled, release := make(chan struct{}), make(chan struct{})
		rt.Schedule(0, func() {
			close(stalled)
			<-release
		})
		<-stalled
		// The executor is parked: everything below queues behind it.
		var delivered atomic.Int64
		const flood = 10
		for i := 0; i < flood; i++ {
			rt.Send(7, 0, func(any) { delivered.Add(1) }, nil)
		}
		if depth, shed := rt.QueueStats(); depth != 1 || shed != flood-1 {
			t.Fatalf("after %d sends into a 1-deep inbox: depth %d, shed %d; want 1, %d", flood, depth, shed, flood-1)
		}
		// Timers and client work posted into the full inbox all run.
		ran := make(chan string, 4)
		rt.Schedule(0, func() { ran <- "Schedule" })
		rt.ScheduleArg(0, func(arg any) { ran <- arg.(string) }, "ScheduleArg")
		rt.AfterFunc(0, func() { ran <- "AfterFunc" })
		go func() {
			if rt.Do(func() {}) == nil {
				ran <- "Do"
			}
		}()
		// All four must be queued behind the one delivery before the
		// executor moves again (AfterFunc and Do post from goroutines).
		for deadline := time.Now().Add(wait); ; time.Sleep(time.Millisecond) {
			if depth, _ := rt.QueueStats(); depth == 5 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("timers and Do were not all queued into the full inbox")
			}
		}
		close(release)
		got := map[string]bool{}
		for len(got) < 4 {
			select {
			case name := <-ran:
				got[name] = true
			case <-time.After(wait):
				t.Fatalf("with the inbox full only %v ran; timers and Do must never be shed", got)
			}
		}
		if _, shed := rt.QueueStats(); delivered.Load() != 1 || shed != flood-1 {
			t.Fatalf("delivered %d, shed %d; want 1 and %d", delivered.Load(), shed, flood-1)
		}
	})
}

// TestDeliveriesSerializeOnExecutor floods one node with concurrent
// sends from many goroutines and checks the callbacks never overlap —
// the single-threaded protocol contract.
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
				rt.Send(3, 0, deliver, nil)
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
