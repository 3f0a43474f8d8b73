// Package maporder flags `for range` over a map whose loop body has
// order-sensitive effects. Go randomizes map iteration order on
// purpose, so any observable sequence produced inside such a loop —
// events scheduled on the engine, messages sent, entries appended to a
// result slice, random draws — varies run to run even under a fixed
// seed, silently breaking the simulator's reproducibility contract.
//
// The fix is the sorted-keys idiom (collect the keys, sort, iterate the
// sorted slice — see core.RepairReplicas); loops whose effects are
// provably order-insensitive (e.g. the output is fully sorted
// afterwards) annotate the site with //lint:allow maporder.
package maporder

import (
	"go/ast"
	"go/types"

	"landmarkdht/internal/analysis"
)

// Analyzer flags order-sensitive map iteration.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag range-over-map loops with order-sensitive effects (event scheduling, " +
		"sends, appends to outer slices, RNG draws); iterate sorted keys or annotate //lint:allow maporder",
	Run: run,
}

// sensitiveCalls names methods whose invocation order is observable in
// the simulation: they schedule events, transmit messages, or insert
// into another node's store. The match is by name — a deliberately
// broad heuristic; a false positive on an order-insensitive method of
// the same name is annotated away at the site.
var sensitiveCalls = map[string]bool{
	"Schedule":      true,
	"ScheduleArg":   true,
	"ScheduleAt":    true,
	"AfterFunc":     true,
	"SendRecord":    true,
	"send":          true, // core's SendRecord that takes a hold
	"arm":           true, // core's query timer on ScheduleArg
	"FindSuccessor": true,
	"BulkLoad":      true,
	"Publish":       true,
	"RangeQuery":    true,
	"addAll":        true,
	"reinsert":      true,
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if reason := orderSensitive(pass, rs); reason != "" {
				pass.Reportf(rs.Pos(),
					"iteration over map has order-sensitive effects (%s); iterate over sorted keys or annotate //lint:allow maporder",
					reason)
			}
			return true
		})
	}
}

// orderSensitive scans the loop body (including nested closures and
// loops — their effects still replay in map order) and returns a
// description of the first order-sensitive effect, or "".
func orderSensitive(pass *analysis.Pass, rs *ast.RangeStmt) string {
	keyObj := rangeKeyObject(pass.Info, rs)
	reason := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			reason = "channel send"
		case *ast.AssignStmt:
			if r := sensitiveAppend(pass, rs, keyObj, n); r != "" {
				reason = r
			}
		case *ast.CallExpr:
			if r := sensitiveCall(pass, n); r != "" {
				reason = r
			}
		}
		return reason == ""
	})
	return reason
}

// rangeKeyObject returns the object bound to the loop's key variable,
// or nil.
func rangeKeyObject(info *types.Info, rs *ast.RangeStmt) types.Object {
	id, ok := rs.Key.(*ast.Ident)
	if !ok {
		return nil
	}
	return info.ObjectOf(id)
}

// sensitiveAppend reports an append whose destination outlives the loop
// — i.e. the map's iteration order leaks into a slice built outside it.
// The one exempt shape is collecting bare keys (`ks = append(ks, k)`):
// that is the first half of the sorted-keys idiom and carries no order
// until sorted.
func sensitiveAppend(pass *analysis.Pass, rs *ast.RangeStmt, keyObj types.Object, as *ast.AssignStmt) string {
	if len(as.Lhs) != len(as.Rhs) {
		return ""
	}
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass.Info, call) {
			continue
		}
		if keyCollectOnly(pass.Info, call, keyObj) {
			continue
		}
		switch lhs := as.Lhs[i].(type) {
		case *ast.Ident:
			obj := pass.Info.ObjectOf(lhs)
			if obj == nil || obj.Name() == "_" {
				continue
			}
			if obj.Pos() < rs.Pos() || obj.Pos() > rs.End() {
				return "append to slice declared outside the loop"
			}
		case *ast.SelectorExpr:
			// Writing through a field: the slice necessarily outlives
			// the iteration.
			return "append to slice field declared outside the loop"
		case *ast.IndexExpr:
			// m[k] = append(...) writes a map slot — itself unordered,
			// so no order leaks.
		}
	}
	return ""
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// keyCollectOnly reports whether every appended element is exactly the
// loop's key variable.
func keyCollectOnly(info *types.Info, call *ast.CallExpr, keyObj types.Object) bool {
	if keyObj == nil || call.Ellipsis.IsValid() || len(call.Args) < 2 {
		return false
	}
	for _, arg := range call.Args[1:] {
		id, ok := arg.(*ast.Ident)
		if !ok || info.ObjectOf(id) != keyObj {
			return false
		}
	}
	return true
}

// sensitiveCall reports method calls whose order is observable: draws
// on a *math/rand.Rand (each draw advances the generator) and the
// event-scheduling / message-sending methods in sensitiveCalls.
func sensitiveCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if _, _, isQualified := analysis.QualifiedName(pass.Info, sel); isQualified {
		return "" // package function; detrand/wallclock govern those
	}
	if named := analysis.ReceiverNamed(pass.Info, sel.X); named != nil {
		obj := named.Obj()
		if obj.Pkg() != nil && (obj.Pkg().Path() == "math/rand" || obj.Pkg().Path() == "math/rand/v2") &&
			obj.Name() == "Rand" {
			return "random draw"
		}
	}
	if sensitiveCalls[sel.Sel.Name] {
		return "call to " + sel.Sel.Name
	}
	return ""
}
