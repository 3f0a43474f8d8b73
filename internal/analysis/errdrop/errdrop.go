// Package errdrop flags discarded error returns on the wire,
// connection, and file-IO paths. The frame protocol's failure
// semantics (bounded shedding, credit-based completion, honest
// incompleteness) all assume that when a write, read, dial, or
// handshake fails, the caller *notices*: a silently dropped wire error
// turns "the link died and the overlay will retransmit" into "the
// frame evaporated and the query hangs until its deadline". The
// durability layer's guarantee is the same shape: a WAL append, fsync,
// buffered flush, or atomic rename whose error vanishes turns "the
// record is on disk" into "the record may be gone after the next
// crash".
//
// A call is on a checked I/O path when it is:
//
//   - a function of the wire package (frame encode/decode, ReadFrame),
//   - a method of a net type (Conn.Read/Write/Close, the deadline
//     setters, Listener.Accept) or a package-level net dial/listen,
//   - a write-side os.File method (Write, Sync, Close, Truncate, ...),
//     a bufio.Writer flush/write, or a package-level os file
//     operation (Create, OpenFile, Rename, Remove, ...),
//   - a same-package function that transitively performs one of the
//     above AND returns an error — the call-graph summary that makes
//     local wrappers like writePayload or dialHandshake first-class I/O
//     calls. (A wrapper that swallows the error internally is flagged
//     at the swallowing site, not at its callers.)
//
// Discarding means calling as a bare statement (including `go` and
// `defer`) or assigning the error result to the blank identifier.
// Sites where dropping is the design (best-effort teardown of a
// connection that is already being abandoned, cleanup of a temp file
// after the real failure is already reported) carry an explicit
// //lint:allow errdrop <reason>.
package errdrop

import (
	"go/ast"
	"go/types"

	"landmarkdht/internal/analysis"
)

// Analyzer flags discarded errors from wire/conn/file-path calls.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc: "forbid discarding error returns on wire/conn/file-IO paths (wire encode/decode, " +
		"Conn read/write/close, dial, handshake, os.File write/sync/close, bufio flushes, " +
		"and local wrappers around them); annotate intentional drops with //lint:allow errdrop <reason>",
	Run: run,
}

// netMethods are the net-type methods whose errors matter on the wire
// path.
var netMethods = map[string]bool{
	"Read": true, "Write": true, "Close": true, "Accept": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
	"ReadFrom": true, "WriteTo": true,
}

// netFuncs are the package-level net functions on the wire path.
var netFuncs = map[string]bool{
	"Dial": true, "DialTimeout": true, "DialIP": true, "DialTCP": true,
	"DialUDP": true, "DialUnix": true, "Listen": true, "ListenIP": true,
	"ListenTCP": true, "ListenUDP": true, "ListenUnix": true, "ListenPacket": true,
}

// fileMethods are the os.File methods whose errors the durability
// layer depends on: the write side, the flush side, and teardown.
// (Reads surface their failures through short reads and decode errors,
// so they are left to the callers' own checks.)
var fileMethods = map[string]bool{
	"Write": true, "WriteAt": true, "WriteString": true,
	"Sync": true, "Close": true, "Truncate": true,
}

// bufioMethods are the bufio.Writer methods that buffer or flush
// journal bytes: a dropped flush error means acknowledged records that
// never reached the file.
var bufioMethods = map[string]bool{
	"Flush": true, "Write": true, "WriteString": true, "WriteByte": true,
}

// osFuncs are the package-level os file operations on the durability
// path — in particular Rename, which the snapshot protocol relies on
// for atomic replacement.
var osFuncs = map[string]bool{
	"Create": true, "Open": true, "OpenFile": true,
	"Rename": true, "Remove": true, "RemoveAll": true,
	"Mkdir": true, "MkdirAll": true, "Truncate": true, "WriteFile": true,
}

func run(pass *analysis.Pass) {
	g := analysis.NewCallGraph(pass)
	wrappers := wirePathWrappers(pass, g)
	for _, fn := range g.Funcs {
		if fn.Decl.Body == nil {
			continue
		}
		checkBody(pass, g, wrappers, fn.Decl.Body)
	}
}

// wirePathWrappers computes the same-package functions that perform
// wire/net I/O — directly or through other wrappers — and hand the
// error back to their caller. Only error-returning functions
// propagate: a function that already swallows the error is the
// drop site itself, and its callers have nothing to check.
func wirePathWrappers(pass *analysis.Pass, g *analysis.CallGraph) map[*analysis.FuncNode]bool {
	out := make(map[*analysis.FuncNode]bool, len(g.Funcs))
	direct := func(fn *analysis.FuncNode) bool {
		found := false
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if desc, _ := wireCall(pass, g, call, nil); desc != "" {
					found = true
				}
			}
			return true
		})
		return found
	}
	for _, fn := range g.Funcs {
		if fn.Decl.Body != nil && returnsError(pass, fn) && direct(fn) {
			out[fn] = true
		}
	}
	// Propagate through wrappers-of-wrappers. Callees (not
	// ExecCallees): which goroutine runs the I/O is irrelevant to
	// whether the error is dropped.
	for changed := true; changed; {
		changed = false
		for _, fn := range g.Funcs {
			if out[fn] || fn.Decl.Body == nil || !returnsError(pass, fn) {
				continue
			}
			for _, callee := range fn.Callees {
				if out[callee] {
					out[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return out
}

// returnsError reports whether the function's last result is an error.
func returnsError(pass *analysis.Pass, fn *analysis.FuncNode) bool {
	sig, ok := fn.Obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Implements(last, errorInterface())
}

// callReturnsError reports whether a call expression's last result is
// an error (the position checked for blank assignment).
func callReturnsError(pass *analysis.Pass, call *ast.CallExpr) bool {
	t := pass.Info.TypeOf(call)
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(tuple.Len() - 1).Type()
	}
	return types.Implements(t, errorInterface())
}

func errorInterface() *types.Interface {
	return types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
}

// wireCall classifies a call as wire-path, returning a description for
// diagnostics. wrappers may be nil during the direct-detection phase
// (stdlib-only classification).
func wireCall(pass *analysis.Pass, g *analysis.CallGraph, call *ast.CallExpr, wrappers map[*analysis.FuncNode]bool) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if wrappers != nil {
			if n := g.NodeOf(pass.Info.Uses[fun]); n != nil && wrappers[n] {
				return n.Name() + " (wire/conn/file path)", true
			}
		}
	case *ast.SelectorExpr:
		if path, name, ok := analysis.QualifiedName(pass.Info, fun); ok {
			if pathBase(path) == "wire" {
				return "wire." + name, true
			}
			if path == "net" && netFuncs[name] {
				return "net." + name, true
			}
			if path == "os" && osFuncs[name] {
				return "os." + name, true
			}
			return "", false
		}
		fn, ok := pass.Info.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return "", false
		}
		if fn.Pkg().Path() == "net" && netMethods[fn.Name()] {
			return "net." + recvName(fn) + "." + fn.Name(), true
		}
		if fn.Pkg().Path() == "os" && recvName(fn) == "File" && fileMethods[fn.Name()] {
			return "os.File." + fn.Name(), true
		}
		if fn.Pkg().Path() == "bufio" && recvName(fn) == "Writer" && bufioMethods[fn.Name()] {
			return "bufio.Writer." + fn.Name(), true
		}
		if wrappers != nil {
			if n := g.NodeOf(fn); n != nil && wrappers[n] {
				return n.Name() + " (wire/conn/file path)", true
			}
		}
	}
	return "", false
}

// checkBody reports wire-path calls whose error result is discarded.
func checkBody(pass *analysis.Pass, g *analysis.CallGraph, wrappers map[*analysis.FuncNode]bool, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		var call *ast.CallExpr
		how := ""
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, _ = n.X.(*ast.CallExpr)
			how = "return value discarded"
		case *ast.GoStmt:
			call, how = n.Call, "error lost in go statement"
		case *ast.DeferStmt:
			call, how = n.Call, "error lost in deferred call"
		case *ast.AssignStmt:
			checkBlankAssign(pass, g, wrappers, n)
			return true
		}
		if call == nil {
			return true
		}
		desc, ok := wireCall(pass, g, call, wrappers)
		if !ok || !callReturnsError(pass, call) {
			return true
		}
		pass.Reportf(call.Pos(),
			"dropped error from %s (%s); handle it or annotate //lint:allow errdrop <reason>",
			desc, how)
		return true
	})
}

// checkBlankAssign flags `_ = wireCall()` and `x, _ := wireCall()`
// where the blank identifier lands on the error result.
func checkBlankAssign(pass *analysis.Pass, g *analysis.CallGraph, wrappers map[*analysis.FuncNode]bool, as *ast.AssignStmt) {
	// Only the single-call form assigns a call's results positionally.
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	desc, ok := wireCall(pass, g, call, wrappers)
	if !ok || !callReturnsError(pass, call) {
		return
	}
	last, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident)
	if !ok || last.Name != "_" {
		return
	}
	pass.Reportf(call.Pos(),
		"dropped error from %s (assigned to _); handle it or annotate //lint:allow errdrop <reason>",
		desc)
}

// recvName returns the receiver type name of a method.
func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// pathBase returns the last element of an import path.
func pathBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
