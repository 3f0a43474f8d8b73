package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Schedule(5*time.Second, func() { at = e.Now() })
	e.Run()
	if at != 5*time.Second {
		t.Fatalf("event saw time %v, want 5s", at)
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("final time %v, want 5s", e.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(-time.Second, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("event with negative delay did not run")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved backwards or forward: %v", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.Schedule(time.Second, func() {
		times = append(times, e.Now())
		e.Schedule(time.Second, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Fatalf("nested times = %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var count int
	for i := 1; i <= 10; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() { count++ })
	}
	e.RunUntil(5 * time.Second)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("now = %v, want 5s", e.Now())
	}
	if e.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", e.Pending())
	}
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestRunForAdvancesIdleClock(t *testing.T) {
	e := NewEngine(1)
	e.RunFor(42 * time.Second)
	if e.Now() != 42*time.Second {
		t.Fatalf("now = %v, want 42s", e.Now())
	}
}

func TestScheduleAt(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.ScheduleAt(7*time.Second, func() { at = e.Now() })
	e.Run()
	if at != 7*time.Second {
		t.Fatalf("at = %v, want 7s", at)
	}
}

func TestScheduleAtPastClamps(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10*time.Second, func() {
		e.ScheduleAt(3*time.Second, func() {
			if e.Now() != 10*time.Second {
				t.Errorf("past event ran at %v, want clamped to 10s", e.Now())
			}
		})
	})
	e.Run()
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 17; i++ {
		e.Schedule(time.Duration(i), func() {})
	}
	e.Run()
	if e.Processed() != 17 {
		t.Fatalf("processed = %d, want 17", e.Processed())
	}
}

func TestSchedulePanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil fn")
		}
	}()
	NewEngine(1).Schedule(0, nil)
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var trace []int64
		var step func()
		n := 0
		step = func() {
			trace = append(trace, int64(e.Now()), e.rng.Int63n(1000))
			n++
			if n < 100 {
				e.Schedule(time.Duration(e.rng.Int63n(int64(time.Second))), step)
			}
		}
		e.Schedule(0, step)
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// Property: for any batch of events with random delays, execution order
// is sorted by (time, insertion order).
func TestQuickEventOrderSorted(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(7)
		type rec struct {
			at  Time
			seq int
		}
		var out []rec
		for i, d := range delays {
			i, d := i, d
			e.Schedule(time.Duration(d)*time.Millisecond, func() {
				out = append(out, rec{e.Now(), i})
			})
		}
		e.Run()
		if len(out) != len(delays) {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i].at < out[i-1].at {
				return false
			}
			if out[i].at == out[i-1].at && out[i].seq < out[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestRunReentrancyPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on re-entrant Run")
			}
		}()
		e.Run()
	})
	e.Run()
}

func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
	}
	e.Run()
}
