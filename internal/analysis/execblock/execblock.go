// Package execblock forbids blocking operations in protocol-executor
// context. The live runtimes (runtime/livert, runtime/netrt) keep the
// paper's one-message-at-a-time correctness argument by running every
// protocol callback on a single executor goroutine; anything that
// parks that goroutine — a channel operation, a lock that a blocked
// holder owns, network I/O, a sleep — stalls the whole node: no
// queries make progress, timers pile up, and Do/Await callers hang.
// Worst case, the executor waits on something only the executor itself
// can satisfy, a self-deadlock (Runtime.Do from executor context).
//
// Executor context is declared at the roots, not inferred: entry
// points that run on the executor carry a //lint:context executor
// annotation (livert's Clock surface, netrt's
// executor-owned protocol steps). The analyzer builds the package call
// graph (analysis.NewCallGraph) and reports every blocking operation
// — per analysis.BlockingOp — in any function reachable from a root,
// excluding code severed onto fresh goroutines by `go` statements.
//
// Bounded, provably safe sites (a queue mutex whose holders never
// block) are annotated //lint:allow execblock <reason>; the lockheld
// analyzer mechanically checks the "holders never block" half of such
// claims.
package execblock

import (
	"go/ast"

	"landmarkdht/internal/analysis"
)

// Analyzer flags blocking operations reachable from executor context.
var Analyzer = &analysis.Analyzer{
	Name: "execblock",
	Doc: "forbid blocking operations (channel ops, Lock, net I/O, Sleep, Wait, Do/Await) " +
		"in code reachable from //lint:context executor roots; annotate provably bounded sites with //lint:allow execblock <reason>",
	Run: run,
}

func run(pass *analysis.Pass) {
	g := analysis.NewCallGraph(pass)
	reach := g.Reachable(analysis.ContextExecutor)
	if len(reach) == 0 {
		return
	}
	for _, fn := range g.Funcs {
		if !reach[fn] {
			continue
		}
		path := g.PathFrom(analysis.ContextExecutor, fn)
		via := ""
		if len(path) > 1 {
			via = " (reachable via " + analysis.PathString(path) + ")"
		}
		// The comm ops of a select belong to the select: it alone
		// decides whether they block (a default clause makes it a poll).
		skip := make(map[ast.Node]bool)
		g.InspectBody(fn, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectStmt); ok {
				for _, op := range analysis.CommOps(sel) {
					skip[op] = true
				}
			}
			if skip[n] {
				return true
			}
			if desc, ok := analysis.BlockingOp(pass.Info, n); ok {
				pass.Reportf(n.Pos(),
					"%s on the protocol executor%s; move the work off the executor or annotate //lint:allow execblock <reason>",
					desc, via)
			}
			return true
		})
	}
}
