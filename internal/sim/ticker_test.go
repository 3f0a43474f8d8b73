package sim_test

import (
	"testing"
	"time"

	"landmarkdht/internal/runtime"
	"landmarkdht/internal/runtime/simrt"
	"landmarkdht/internal/sim"
)

// Periodic work on the simulated clock runs through runtime.Ticker;
// these tests pin its behaviour on a sim.Engine.

func TestTickerPeriodic(t *testing.T) {
	e := sim.NewEngine(1)
	rt := simrt.New(e)
	var ticks []sim.Time
	tk := runtime.NewTicker(rt, time.Second, time.Second, func() {
		ticks = append(ticks, e.Now())
	})
	e.RunUntil(5 * time.Second)
	tk.Stop()
	e.RunUntil(10 * time.Second)
	if len(ticks) != 5 {
		t.Fatalf("ticks = %v, want 5 ticks", ticks)
	}
	for i, at := range ticks {
		if at != time.Duration(i+1)*time.Second {
			t.Fatalf("tick %d at %v", i, at)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := sim.NewEngine(1)
	count := 0
	var tk *runtime.Ticker
	tk = runtime.NewTicker(simrt.New(e), 0, time.Second, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if !tk.Stopped() {
		t.Fatal("ticker not stopped")
	}
}

func TestTickerOffsetZero(t *testing.T) {
	e := sim.NewEngine(1)
	first := sim.Time(-1)
	tk := runtime.NewTicker(simrt.New(e), 0, time.Minute, func() {
		if first < 0 {
			first = e.Now()
		}
	})
	e.RunUntil(time.Second)
	tk.Stop()
	if first != 0 {
		t.Fatalf("first tick at %v, want 0", first)
	}
}

func TestTickerPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero period")
		}
	}()
	runtime.NewTicker(simrt.New(sim.NewEngine(1)), 0, 0, func() {})
}
