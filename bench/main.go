//lint:file-allow nogoroutine the load generator's clients, the sampler and the signal handler are real goroutines, not engine-owned code

// Command bench is the repository's measurement ladder: four seeded
// workloads — three against a ring of four lmnode processes on pinned
// loopback ports, one against the in-process simulated overlay — each
// driven closed-loop, every answer checked against brute force, every
// metric printed by name with its unit. A traced run (--trace 1)
// replays each workload with one client, wraps a span around every
// call the benchmark makes into a layer, and reports the per-layer
// numbers. See README.md for the workloads, the metrics and how the
// two sets relate; BENCHMARK.json at the repository root names them.
//
// Run it from the repository root through bench/run.sh, which builds
// this module and keeps the Go build cache inside the checkout:
//
//	bash bench/run.sh --seed 1                        # all workloads
//	bash bench/run.sh --workload ring-scan --seed 1   # one, JSON last line
//	bash bench/run.sh --selfcheck --seed 1            # two suites must agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the harness reads: it is the
// one list of workload and metric names, units and bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints one run's metrics by name with their units and returns
// the result line, which holds the metrics of listed: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one. All
// of those must have been measured. A metric of the other list that the
// run measured as well — the publish latencies of a workload that
// publishes — is printed too; anything else is an error: the names are
// the contract later changes refer to.
func report(workload string, listed, other []metricSpec, o outcome) (resultLine, error) {
	line := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue)}
	show := func(m metricSpec, v float64) {
		note := ""
		if n, ok := o.samples[m.Name]; ok {
			note = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Printf("%-16s %-32s %14.4f %s%s\n", workload, m.Name, v, m.Unit, note)
	}
	for _, m := range listed {
		v, ok := o.metrics[m.Name]
		if !ok {
			return line, fmt.Errorf("%s: metric %s was not measured", workload, m.Name)
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		show(m, v)
	}
	extra := 0
	for _, m := range other {
		if v, ok := o.metrics[m.Name]; ok {
			extra++
			show(m, v)
		}
	}
	if len(o.metrics) != len(listed)+extra {
		return line, fmt.Errorf("%s: measured %d metrics, only %d of them are in BENCHMARK.json", workload, len(o.metrics), len(listed)+extra)
	}
	fmt.Printf("%-16s attempted %d, failed %d\n", workload, o.attempted, o.failed)
	if o.firstErr != nil {
		fmt.Printf("%-16s first failure: %v\n", workload, o.firstErr)
	}
	return line, nil
}

func main() { os.Exit(realMain()) }

// The harness runs from the repository root: it reads the names, units
// and bounds from specPath and keeps everything it writes — the lmnode
// binary, data directories, layout.json, trace-<workload>-<seed>.json —
// under workDir.
const (
	specPath = "BENCHMARK.json"
	workDir  = ".bench_build"
)

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	selfcheck bool
	scale     float64
}

func realMain() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result line (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the operation sequences")
	flag.Float64Var(&o.seconds, "seconds", 0, "timed span per workload (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics instead")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the suite twice, end to end and traced, and fail if an end-to-end metric differs by more than its bound or an exact count differs at all")
	flag.Float64Var(&o.scale, "scale", 1, "corpus and sequence scale, for smoke runs")
	flag.Parse()
	o.traced = *trace == 1
	if flag.NArg() > 0 || o.scale <= 0 || o.seconds < 0 || *trace < 0 || *trace > 1 || (o.selfcheck && o.traced) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		return 2
	}

	// Any signal that would end the harness first kills and reaps every
	// lmnode it started. Notifying SIGPIPE also turns a closed stdout
	// into a write error instead of silent death.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		s := <-sig
		reapAll()
		fmt.Fprintf(os.Stderr, "bench: %v, ring stopped\n", s)
		os.Exit(130)
	}()
	defer reapAll()

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

func run(o options) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := filepath.Abs(workDir)
	if err != nil {
		return err
	}
	e := env{workDir: dir, scale: o.scale, reps: 3}
	if e.bin, err = buildNode(dir); err != nil {
		return err
	}
	names := spec.workloadNames()
	if o.workload != "" {
		names = []string{o.workload}
	}
	first, err := runSuite(e, spec, names, o.seed, o.seconds, o.traced)
	if err != nil {
		return err
	}
	suites := []map[string]resultLine{first}
	if o.selfcheck {
		second, err := runSuite(e, spec, names, o.seed, o.seconds, false)
		if err != nil {
			return err
		}
		if err := compare(spec.EndToEnd, names, first, second); err != nil {
			return err
		}
		var traced [2]map[string]resultLine
		for i := range traced {
			if traced[i], err = runSuite(e, spec, names, o.seed, o.seconds, true); err != nil {
				return err
			}
		}
		if err := compareExact(names, traced[0], traced[1]); err != nil {
			return err
		}
		suites = append(suites, second, traced[0], traced[1])
	}
	failed := 0
	for _, lines := range suites {
		for _, n := range names {
			failed += lines[n].Failed
		}
	}
	if o.workload != "" {
		// The result line is the last line of standard output.
		data, err := json.Marshal(first[o.workload])
		if err != nil {
			return err
		}
		if _, err := fmt.Println(string(data)); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed verification", failed)
	}
	return nil
}

func (s benchSpec) workloadNames() []string {
	names := make([]string, 0, len(s.Workloads))
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// runSuite runs the named workloads once each — end to end, or traced —
// prints their metrics and returns their result lines.
func runSuite(e env, spec benchSpec, names []string, seed int64, seconds float64, traced bool) (map[string]resultLine, error) {
	lines := make(map[string]resultLine)
	for _, n := range names {
		w, ok := workloadByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		w = w.scaled(e.scale)
		var o outcome
		var err error
		listed, other := spec.EndToEnd, spec.PerLayer
		if traced {
			listed, other = other, listed
			o, err = runTraced(e, w, seed, seconds, filepath.Join(e.workDir, fmt.Sprintf("trace-%s-%d.json", n, seed)))
		} else {
			o, err = runEndToEnd(e, w, seed, seconds)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		if lines[n], err = report(n, listed, other, o); err != nil {
			return nil, err
		}
	}
	return lines, nil
}

// setupFloor is the part of setup_s the repeatability check does not
// resolve: set-ups of a few hundredths of a second differ by more than
// a quarter from one to the next without anything having changed.
// BENCHMARK.json has no field for it, so only --selfcheck applies it.
const setupFloor = 0.25 // seconds

// compare is the repeatability check: the second suite may not read
// worse than the first by more than a metric's own bound, nor better by
// more than it — the two ran the same code.
func compare(specs []metricSpec, names []string, a, b map[string]resultLine) error {
	bad := 0
	for _, n := range names {
		for _, m := range specs {
			x, y := a[n].Metrics[m.Name].Value, b[n].Metrics[m.Name].Value
			verdict := "ok"
			if differs(m, x, y) {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("selfcheck %-16s %-16s %12.4f %12.4f  bound %2.0f%%  %s\n", n, m.Name, x, y, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metrics differ between two runs of the same code by more than their bound", bad)
	}
	return nil
}

// exactMetrics are the per-layer counts that the seed alone determines.
var exactMetrics = []string{
	"netrt.frames_per_query", "netrt.shed", "netrt.redials",
	"core.sim_msgs_per_query", "core.sim_bytes_per_query", "core.sim_hops", "core.sim_candidates_per_result",
}

// compareExact is the other half of the repeatability check: two
// traced suites must read every exact count identically.
func compareExact(names []string, a, b map[string]resultLine) error {
	for _, n := range names {
		for _, m := range exactMetrics {
			x, y := a[n].Metrics[m].Value, b[n].Metrics[m].Value
			fmt.Printf("selfcheck %-16s %-32s %14.4f %14.4f\n", n, m, x, y)
			if x != y {
				return fmt.Errorf("selfcheck: %s %s read %v, then %v; it is an exact count", n, m, x, y)
			}
		}
	}
	return nil
}

// differs reports whether two readings of metric m, the first of them
// x, lie further apart than m's bound allows. A reading that is not a
// positive number differs from anything: no end-to-end metric is ever 0.
func differs(m metricSpec, x, y float64) bool {
	if !(x > 0) || !(y > 0) {
		return true
	}
	allowed := m.Bound * x
	if m.Name == "setup_s" {
		allowed = max(allowed, setupFloor)
	}
	return math.Abs(y-x) > allowed
}
