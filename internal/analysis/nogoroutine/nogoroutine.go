// Package nogoroutine forbids concurrency inside engine-owned code. A
// sim.Engine is strictly single-threaded: every event handler runs to
// completion on the driving goroutine, and that is what makes the event
// sequence (and therefore every statistic and trace) reproducible.
// Goroutines, channels, and sync primitives inside engine-driven
// packages reintroduce scheduler nondeterminism.
//
// Parallelism belongs one level up, in the per-trial runner that drives
// independent engines on separate goroutines; those few files carry a
// //lint:file-allow nogoroutine annotation.
//
// The live-capable packages (analysis.LiveCapable: netrt, its executor
// livert, and the commands that run lmnode processes) are exempt as a
// matter of scope, not annotation: they implement or drive the
// concurrent runtime a deployed node runs on, so goroutines, channels
// and sync primitives are their job. The protocol packages themselves
// (chord, core) remain engine-owned and run on the simulator only.
package nogoroutine

import (
	"go/ast"
	"go/token"
	"go/types"

	"landmarkdht/internal/analysis"
)

// Analyzer flags go statements, channel operations and types, select
// statements, and any use of sync or sync/atomic.
var Analyzer = &analysis.Analyzer{
	Name: "nogoroutine",
	Doc: "forbid goroutines, channels, and sync primitives in single-threaded " +
		"engine-owned code; per-trial parallel runners annotate //lint:file-allow nogoroutine",
	Run: run,
}

func run(pass *analysis.Pass) {
	if analysis.LiveCapable(pass.Pkg.Path()) {
		return // live-runtime package: concurrency is in scope by design
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in single-threaded engine-owned code")
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send in single-threaded engine-owned code")
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select statement in single-threaded engine-owned code")
			case *ast.ChanType:
				pass.Reportf(n.Pos(), "channel type in single-threaded engine-owned code")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "channel receive in single-threaded engine-owned code")
				}
			case *ast.RangeStmt:
				if t := pass.Info.TypeOf(n.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						pass.Reportf(n.Pos(), "range over channel in single-threaded engine-owned code")
					}
				}
			case *ast.SelectorExpr:
				if path, name, ok := analysis.QualifiedName(pass.Info, n); ok &&
					(path == "sync" || path == "sync/atomic") {
					pass.Reportf(n.Pos(), "use of %s.%s in single-threaded engine-owned code", path, name)
				}
			}
			return true
		})
	}
}
