//lint:file-allow wallclock the benchmark times real processes and real sockets; wall time is what it measures
//lint:file-allow nogoroutine the kernel runs on one goroutine per core, started and awaited by kernelMs

package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The benchmark runs on a few cores of a shared host, and that host's
// speed moves: the same fixed loop takes 50 ms, then 80 ms a minute
// later, and a run's rate, latencies and CPU per operation move with it
// (README.md, "Machine speed", has the measurements). A run therefore
// times a fixed kernel — harness code only, no code of the repository —
// between the segments of its timed spans, and reports every time as it
// would read on a machine that runs the kernel in referenceKernelMs.
const (
	kernelPasses      = 32
	referenceKernelMs = 50.0 // this box when its neighbours are quiet
)

// The kernel streams over 8 MiB of vectors, summing distances as a scan
// does, and walks a map of 30 000 entries as a store does: work that
// slows down with the clock and with contention for the shared cache
// alike.
var kernelVecs, kernelMap = func() ([]float64, map[int32][]float64) {
	vecs := make([]float64, 1<<20)
	for i := range vecs {
		vecs[i] = float64(i%97) / 97
	}
	m := make(map[int32][]float64)
	for i := range 30000 {
		m[int32(i)] = vecs[i*8 : i*8+8]
	}
	return vecs, m
}()

func kernelPass() float64 {
	s := 0.0
	for i := 0; i+8 <= len(kernelVecs); i += 8 {
		d := 0.0
		for _, x := range kernelVecs[i : i+8] {
			d += (x - 0.5) * (x - 0.5)
		}
		s += math.Sqrt(d)
	}
	for _, v := range kernelMap {
		s += v[0]
	}
	return s
}

// kernelSink keeps the compiler from dropping the kernel's result.
var kernelSink float64

// kernelMs runs the kernel on every core at once, as the ring uses
// them, and returns the mean time one core took.
func kernelMs() float64 {
	n := runtime.GOMAXPROCS(0)
	took := make([]time.Duration, n)
	sums := make([]float64, n)
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.Now()
			for range kernelPasses {
				sums[g] += kernelPass()
			}
			took[g] = time.Since(t)
		}()
	}
	wg.Wait()
	var total time.Duration
	for g := range n {
		total += took[g]
		kernelSink += sums[g]
	}
	return ms(total) / float64(n)
}
