//lint:file-allow wallclock the benchmark times real processes and real sockets; wall time is what it measures
//lint:file-allow nogoroutine the load generator's clients, the sampler and the signal handler are real goroutines, not engine-owned code

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	lm "landmarkdht"
	"landmarkdht/internal/metric"
	"landmarkdht/internal/runtime/netrt"
)

// workload is one set of inputs the benchmark runs. Sizes are from
// scratch runs of the unmodified seed on a 2-core box; README.md says
// why each workload exists.
type workload struct {
	name         string
	sim          bool // in-process simulated overlay instead of a process ring
	nodes        int  // overlay size (sim only)
	objects      int
	dim          int
	landmarks    int
	radius       float64
	pool         int     // distinct operations in the seeded sequence
	publishShare float64 // share of the sequence that publishes
	durable      bool    // members run with -data-dir
	replicas     int
}

var workloads = []workload{
	{name: "ring-selective", objects: 8192, dim: 8, landmarks: 6, radius: 0.45, pool: 4000},
	{name: "ring-scan", objects: 131072, dim: 8, landmarks: 6, radius: 0.30, pool: 1000},
	{name: "ring-write-mix", objects: 8192, dim: 8, landmarks: 6, radius: 0.45, pool: 4000,
		publishShare: 0.2, durable: true, replicas: 1},
	{name: "sim-search", sim: true, nodes: 256, objects: 20000, dim: 8, landmarks: 6, radius: 0.4, pool: 4000},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks the corpus and the sequence for smoke runs.
func (w workload) scaled(scale float64) workload {
	w.objects = max(512, int(float64(w.objects)*scale))
	w.pool = max(40, int(float64(w.pool)*scale))
	return w
}

func (w workload) data() netrt.DataConfig {
	return netrt.DataConfig{Metric: "euclid", Seed: corpusSeed, Objects: w.objects, Dim: w.dim, Landmarks: w.landmarks}
}

// env is what every run shares.
type env struct {
	bin       string  // lmnode binary
	workDir   string  // scratch space inside the checkout
	ephemeral bool    // ring on ephemeral ports (go test only)
	scale     float64 // corpus and sequence scale (1 = the benchmark)
	reps      int     // set-ups per run (3; 1 under go test)
}

// outcome is one run of one workload.
type outcome struct {
	attempted int
	failed    int
	firstErr  error
	metrics   map[string]float64
	samples   map[string]int // sample count behind a latency metric
}

func newOutcome() outcome {
	return outcome{metrics: make(map[string]float64), samples: make(map[string]int)}
}

func (o *outcome) count(p phase) {
	o.attempted += p.attempted
	o.failed += p.failed
	if o.firstErr == nil {
		o.firstErr = p.firstErr
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// A run is env.reps repetitions, each on a fresh set-up: warmUp of
// untimed load, then a timed span in segments with the speed kernel
// between them. The rate is every verified operation of the timed
// segments over their summed length, the latencies are percentiles over
// every verified operation of those segments, and the CPU per operation
// is the segments' summed CPU over the same operations, so a stall, a
// pause or a backlog anywhere in a segment counts. Set-up time and
// memory are medians over the repetitions. Every time is then scaled by
// referenceKernelMs over the run's median kernel time.
const (
	warmUp  = 500 * time.Millisecond
	segment = time.Second
)

// repetition is what one set-up of the system measured.
type repetition struct {
	setup   float64 // seconds
	rss     float64 // MiB
	secs    float64 // summed length of the timed segments
	ops     int     // operations verified in them
	cpuMs   float64 // CPU used during them
	queryMs []float64
	// publishMs is empty unless the workload publishes.
	publishMs []float64
	kernelMs  []float64 // the speed kernel, before and after each segment
}

// timeSpan drives loop for warmUp untimed, then for d in segments, and
// records the segments' length, the CPU they used and the latencies of
// their verified operations in rep; around every segment it times the
// speed kernel, outside the timed and CPU-counted part. loop runs
// closed-loop from a sequence index until stop is set and returns the
// next unused index.
func timeSpan(rep *repetition, d time.Duration, cpu func() (time.Duration, error), next *int, out *outcome,
	loop func(from int, stop *atomic.Bool) (phase, int)) error {
	warm, i := loop(*next, stopAfter(warmUp))
	out.count(warm)
	rep.kernelMs = append(rep.kernelMs, kernelMs())
	for left := d; left > 0; left -= segment {
		c0, err := cpu()
		if err != nil {
			return err
		}
		t0 := time.Now()
		var p phase
		p, i = loop(i, stopAfter(min(segment, left)))
		rep.secs += time.Since(t0).Seconds()
		c1, err := cpu()
		if err != nil {
			return err
		}
		out.count(p)
		rep.cpuMs += ms(c1 - c0)
		rep.ops += len(p.samples)
		queryMs, publishMs := p.latencies()
		rep.queryMs = append(rep.queryMs, queryMs...)
		rep.publishMs = append(rep.publishMs, publishMs...)
		rep.kernelMs = append(rep.kernelMs, kernelMs())
	}
	*next = i
	return nil
}

// summarize pools the repetitions into the run's metrics.
func (o *outcome) summarize(reps []repetition) error {
	var elapsed, cpuMs float64
	var setups, rss, queryMs, publishMs, kernel []float64
	ops := 0
	for i, r := range reps {
		fmt.Printf("repetition %d, as measured: set-up %.3f s, %d operations in %.2f s (%.1f/s), query p50 %.3f ms, %.3f ms CPU/op, kernel %.2f ms\n",
			i+1, r.setup, r.ops, r.secs, float64(r.ops)/r.secs, median(r.queryMs), r.cpuMs/float64(max(r.ops, 1)), median(r.kernelMs))
		ops += r.ops
		elapsed += r.secs
		cpuMs += r.cpuMs
		setups = append(setups, r.setup)
		rss = append(rss, r.rss)
		queryMs = append(queryMs, r.queryMs...)
		publishMs = append(publishMs, r.publishMs...)
		kernel = append(kernel, r.kernelMs...)
	}
	if ops == 0 {
		return fmt.Errorf("no operation succeeded: %w", o.firstErr)
	}
	// scale turns a time measured on this machine, now, into the time a
	// machine at reference speed would have measured.
	scale := referenceKernelMs / median(kernel)
	fmt.Printf("machine speed: kernel %.2f ms (median of %d), reference %.0f ms: times below are the measured ones x %.4f\n",
		median(kernel), len(kernel), referenceKernelMs, scale)
	o.metrics["setup_s"] = median(setups) * scale
	o.metrics["rss_mb"] = median(rss)
	o.metrics["ops_per_s"], o.samples["ops_per_s"] = float64(ops)/(elapsed*scale), ops
	o.metrics["cpu_ms_per_op"], o.samples["cpu_ms_per_op"] = cpuMs*scale/float64(ops), ops
	sort.Float64s(queryMs)
	o.metrics["query_p50_ms"], o.samples["query_p50_ms"] = percentile(queryMs, 50)*scale, len(queryMs)
	o.metrics["query_p95_ms"], o.samples["query_p95_ms"] = percentile(queryMs, 95)*scale, len(queryMs)
	if len(publishMs) > 0 {
		for i := range publishMs {
			publishMs[i] *= scale
		}
		o.publishLatency(publishMs)
	}
	return nil
}

func runEndToEnd(e env, w workload, seed int64, seconds float64) (outcome, error) {
	if w.sim {
		return runSim(e, w, seed, seconds)
	}
	return runRing(e, w, seed, seconds)
}

func runRing(e env, w workload, seed int64, seconds float64) (outcome, error) {
	out := newOutcome()
	ops, err := buildOps(w, seed)
	if err != nil {
		return out, err
	}
	reps := make([]repetition, e.reps)
	next := 0
	for i := range reps {
		if reps[i], err = ringRep(e, w, ops, secs(seconds)/time.Duration(e.reps), &next, &out); err != nil {
			return out, err
		}
	}
	return out, out.summarize(reps)
}

// ringRep boots a ring, drives the workload for d from sequence index
// *next, reads back every acknowledged publish, and stops the ring.
func ringRep(e env, w workload, ops []op, d time.Duration, next *int, out *outcome) (repetition, error) {
	var rep repetition
	r, setup, err := bootRing(ringOptions{bin: e.bin, workDir: e.workDir, w: w, ephemeral: e.ephemeral})
	if err != nil {
		return rep, err
	}
	defer r.stop()
	rep.setup = setup.Seconds()
	if err := checkLayout(e, w, r); err != nil {
		return rep, err
	}
	// Two clients, each on its own connection, to members on opposite
	// sides of the ring.
	clients := []*netrt.Client{r.clients[0], r.clients[2]}
	pub := newPublished()
	pids := r.pids()
	err = timeSpan(&rep, d, func() (time.Duration, error) { return totalCPU(pids) }, next, out,
		func(from int, stop *atomic.Bool) (phase, int) { return runLoop(clients, ops, w, from, stop, pub) })
	if err != nil {
		return rep, err
	}
	att, failed, err := checkPublished(clients, pub)
	out.count(phase{attempted: att, failed: failed, firstErr: err})
	for _, pid := range pids {
		m, err := procHWM(pid)
		if err != nil {
			return rep, err
		}
		rep.rss += m
	}
	return rep, nil
}

// totalCPU is the CPU used so far by the given processes and the
// harness together.
func totalCPU(pids []int) (time.Duration, error) {
	snap, err := cpuSnapshot(pids)
	var sum time.Duration
	for _, c := range snap {
		sum += c
	}
	return sum, err
}

// checkLayout is the layout guard: every member must own part of the
// corpus, and the shares must equal those of the previous run — a ring
// laid out differently answers a different question.
func checkLayout(e env, w workload, r *procRing) error {
	fmt.Printf("%s: ring %v stores %v\n", w.name, r.addrs, r.store)
	if e.ephemeral {
		return nil
	}
	for i, s := range r.store {
		if s <= 0 {
			return fmt.Errorf("layout: ring slot %d (%s) owns no entries", i, r.addrs[i])
		}
	}
	path := filepath.Join(e.workDir, "layout.json")
	seen := make(map[string][]int)
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &seen)
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("layout: %s: %w", path, err)
	}
	key := fmt.Sprintf("%s@%g", w.name, e.scale)
	if prev, ok := seen[key]; ok {
		if !reflect.DeepEqual(prev, r.store) {
			return fmt.Errorf("layout: members store %v, the previous run's stored %v", r.store, prev)
		}
		return nil
	}
	seen[key] = r.store
	if data, err = json.Marshal(seen); err != nil {
		return fmt.Errorf("layout: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("layout: %w", err)
	}
	return nil
}

// simFixture is a simulated overlay with one index over a fixed corpus.
type simFixture struct {
	p    *lm.Platform
	ix   *lm.Index[lm.Vector]
	objs []lm.Vector
}

func newSimFixture(w workload) (*simFixture, time.Duration, error) {
	rng := rand.New(rand.NewSource(corpusSeed))
	objs := make([]lm.Vector, w.objects)
	for i := range objs {
		objs[i] = randomVector(rng, w.dim)
	}
	start := time.Now()
	p, err := lm.New(lm.Options{Nodes: w.nodes, Seed: corpusSeed})
	if err != nil {
		return nil, 0, err
	}
	ix, err := lm.AddIndex(p, lm.EuclideanSpace("euclid", w.dim, 0, 1), objs, nil, lm.IndexOptions{Landmarks: w.landmarks})
	if err != nil {
		p.Close()
		return nil, 0, err
	}
	return &simFixture{p: p, ix: ix, objs: objs}, time.Since(start), nil
}

// simQuery is one search of the sim-search sequence with its expected
// ids, ascending.
type simQuery struct {
	vec  lm.Vector
	want []int
}

func buildSimQueries(w workload, objs []lm.Vector, seed int64) []simQuery {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]simQuery, w.pool)
	for i := range qs {
		qs[i].vec = randomVector(rng, w.dim)
		for id, o := range objs {
			if metric.L2(qs[i].vec, o) <= w.radius {
				qs[i].want = append(qs[i].want, id)
			}
		}
	}
	return qs
}

// search runs and verifies one simulated range search.
func (f *simFixture) search(q *simQuery, radius float64) (lm.SearchStats, error) {
	res, st, err := f.ix.RangeSearch(q.vec, radius)
	if err != nil {
		return st, err
	}
	if !st.Complete {
		return st, fmt.Errorf("incomplete answer (%d subqueries dropped)", st.DroppedSubqueries)
	}
	got := make([]int, len(res))
	for i, m := range res {
		got[i] = m.ID
	}
	sort.Ints(got)
	if len(got) != len(q.want) {
		return st, fmt.Errorf("answer holds %d entries, brute force %d", len(got), len(q.want))
	}
	for i := range got {
		if got[i] != q.want[i] {
			return st, fmt.Errorf("entry %d not in the brute-force answer", got[i])
		}
	}
	return st, nil
}

// loop searches closed-loop from one goroutine until stop is set,
// starting at sequence index from.
func (f *simFixture) loop(qs []simQuery, radius float64, from int, stop *atomic.Bool) (phase, int) {
	var p phase
	i := from
	for ; !stop.Load(); i++ {
		p.attempted++
		t := time.Now()
		_, err := f.search(&qs[i%len(qs)], radius)
		if err != nil {
			p.fail(fmt.Errorf("operation %d: %w", i, err))
			continue
		}
		p.samples = append(p.samples, sample{ms: ms(time.Since(t))})
	}
	return p, i
}

func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func runSim(e env, w workload, seed int64, seconds float64) (outcome, error) {
	out := newOutcome()
	reps := make([]repetition, e.reps)
	var qs []simQuery
	next := 0
	for i := range reps {
		rep := &reps[i]
		f, setup, err := newSimFixture(w)
		if err != nil {
			return out, err
		}
		rep.setup = setup.Seconds()
		if qs == nil {
			qs = buildSimQueries(w, f.objs, seed)
		}
		err = timeSpan(rep, secs(seconds)/time.Duration(e.reps), selfCPU, &next, &out,
			func(from int, stop *atomic.Bool) (phase, int) { return f.loop(qs, w.radius, from, stop) })
		if err != nil {
			f.p.Close()
			return out, err
		}
		f.p.Close()
		// The harness is the system here: its own peak so far.
		if rep.rss, err = procHWM(os.Getpid()); err != nil {
			return out, err
		}
	}
	return out, out.summarize(reps)
}
