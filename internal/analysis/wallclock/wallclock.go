// Package wallclock forbids reading or waiting on the host's real
// clock in simulated code paths. Simulated code measures time with the
// engine's virtual clock (sim.Time, Engine.Now) and waits by scheduling
// events (Engine.Schedule, AfterFunc, Ticker); a time.Now or time.Sleep
// smuggled into a sim-driven path couples results to host speed and
// breaks run-to-run reproducibility.
//
// Legitimate wall-clock timing (e.g. the experiment driver reporting
// how long a run really took) is annotated at the call site with
// //lint:allow wallclock. The live-capable packages (analysis.
// LiveCapable: netrt, its executor livert, and the commands that run
// lmnode processes) are exempt wholesale — they run the protocol in
// real time, so the wall clock is their clock.
package wallclock

import (
	"go/ast"

	"landmarkdht/internal/analysis"
)

// Analyzer flags calls that read or wait on the host clock.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "forbid time.Now/Since/Sleep/After and friends in simulated code; " +
		"use the virtual clock (sim.Time, Engine.Now, Engine.Schedule) or annotate //lint:allow wallclock",
	Run: run,
}

// forbidden lists the package time functions that touch the host clock.
// Pure value manipulation (time.Duration arithmetic, ParseDuration,
// constants) stays allowed.
var forbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func run(pass *analysis.Pass) {
	if analysis.LiveCapable(pass.Pkg.Path()) {
		return // live-runtime package: real time is in scope by design
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, name, ok := analysis.QualifiedName(pass.Info, sel)
			if !ok || path != "time" || !forbidden[name] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"wall-clock call time.%s in simulated code; use the virtual clock (sim.Time, Engine.Now/Schedule) or annotate //lint:allow wallclock",
				name)
			return true
		})
	}
}
