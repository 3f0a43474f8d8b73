// Command lmsim regenerates the paper's tables and figures (and the
// DESIGN.md ablations) from the simulator.
//
// Usage:
//
//	lmsim -exp fig2                 # one experiment at the small scale
//	lmsim -exp all -scale paper     # full §4 reproduction (slow)
//	lmsim -exp fig5 -nodes 512      # override individual knobs
//	lmsim -exp fig3 -json           # the report testdata/golden pins
//
// The experiments are harness.Experiments, which "all" runs in order;
// -h lists their ids.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"landmarkdht/internal/harness"
)

// main defers to realMain so the pprof defers run before the process
// exits with the right status code.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	var ids, cellIDs []string
	for _, e := range harness.Experiments() {
		ids = append(ids, e.ID)
		if e.Cells != nil {
			cellIDs = append(cellIDs, e.ID)
		}
	}
	var (
		exp     = flag.String("exp", "all", "experiment id: "+strings.Join(ids, " ")+" all")
		scaleNm = flag.String("scale", "small", "scale preset: bench, small, paper")
		nodes   = flag.Int("nodes", 0, "override overlay size")
		dataN   = flag.Int("data", 0, "override synthetic dataset size")
		queries = flag.Int("queries", 0, "override query count")
		seed    = flag.Int64("seed", 0, "override random seed")
		trials  = flag.Int("trials", 1, "repeat cell experiments ("+strings.Join(cellIDs, "/")+") over N seeds and report mean±std")
		jsonOut = flag.Bool("json", false, "emit machine-readable JSON reports instead of tables")
		lossArg = flag.String("loss", "0,0.05,0.1,0.2", "comma-separated message loss rates for -exp faults")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lmsim: %v\n", err)
			return 2
		}
		defer f.Close() //lint:allow errdrop read-back is pprof's; a failed close of the profile costs diagnostics, not data
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "lmsim: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lmsim: %v\n", err)
				return
			}
			defer f.Close() //lint:allow errdrop heap profile is diagnostics; WriteHeapProfile's error is the one that matters and is checked
			runtime.GC()    // collect garbage so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "lmsim: %v\n", err)
			}
		}()
	}

	var losses []float64
	for _, s := range strings.Split(*lossArg, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 0 || v >= 1 {
			fmt.Fprintf(os.Stderr, "lmsim: bad loss rate %q (want 0 <= rate < 1)\n", s)
			return 2
		}
		losses = append(losses, v)
	}

	var scale harness.Scale
	switch *scaleNm {
	case "bench":
		scale = harness.BenchScale()
	case "small":
		scale = harness.SmallScale()
	case "paper":
		scale = harness.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "lmsim: unknown scale %q\n", *scaleNm)
		return 2
	}
	if *nodes > 0 {
		scale.Nodes = *nodes
	}
	if *dataN > 0 {
		scale.DataN = *dataN
	}
	if *queries > 0 {
		scale.Queries = *queries
	}
	if *seed != 0 {
		scale.Seed = *seed
	}

	var exps []harness.Experiment
	for _, e := range harness.Experiments() {
		if *exp == "all" || e.ID == *exp {
			exps = append(exps, e)
		}
	}
	if len(exps) == 0 {
		fmt.Fprintf(os.Stderr, "lmsim: unknown experiment %q\n", *exp)
		return 2
	}
	for _, e := range exps {
		// Real elapsed time of the experiment process, not simulated
		// time: the one legitimate wall-clock read in the tree.
		start := time.Now() //lint:allow wallclock real elapsed time of the experiment process, not simulated time
		rep, err := e.Run(scale, *trials, losses)
		if err == nil && *jsonOut {
			err = rep.WriteJSON(os.Stdout)
		} else if err == nil {
			err = rep.Print(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "lmsim: %s: %v\n", e.ID, err)
			return 1
		}
		if !*jsonOut {
			//lint:allow wallclock reporting the same real elapsed time measured above
			fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	return 0
}
