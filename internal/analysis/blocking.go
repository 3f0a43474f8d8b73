// Blocking-operation classifier, shared by the execblock and lockheld
// analyzers. One place decides what "can block this goroutine" means so
// the two analyzers cannot drift apart:
//
//   - channel send, channel receive, range over a channel
//   - select without a default clause (a select with default polls)
//   - time.Sleep
//   - sync.Mutex.Lock, sync.RWMutex.Lock/RLock, sync.WaitGroup.Wait,
//     sync.Cond.Wait, sync.Once.Do (the first caller runs f; every
//     other caller blocks behind it)
//   - net dials and listens (net.Dial, net.DialTimeout, net.Listen, …)
//   - network I/O methods: Read/Write/Accept/Close/ReadFrom/WriteTo on
//     any net type (net.Conn, net.TCPConn, net.Listener, …). Close is
//     included: it can block on linger/handshake teardown, and on an
//     in-memory pipe it synchronizes with the peer.
//   - wire.ReadFrame (a connection read in disguise)
//   - Runtime.Do / Runtime.Await, and the same two called through the
//     runtime.Driver interface (the live runtime's blocking bridges:
//     they wait for the protocol executor, so calling them FROM the
//     executor self-deadlocks)
//
// Non-blocking by design and deliberately absent: sync/atomic,
// Mutex.Unlock, Cond.Signal/Broadcast, WaitGroup.Add/Done, timer
// creation (time.AfterFunc/NewTimer return immediately), and `go`
// statements themselves.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// blockingNetFuncs are the package-level net functions that perform
// blocking dials or binds.
var blockingNetFuncs = map[string]bool{
	"Dial": true, "DialTimeout": true, "DialIP": true, "DialTCP": true,
	"DialUDP": true, "DialUnix": true, "Listen": true, "ListenIP": true,
	"ListenTCP": true, "ListenUDP": true, "ListenUnix": true, "ListenPacket": true,
}

// blockingSyncMethods are the sync methods that wait.
var blockingSyncMethods = map[string]bool{
	"Lock": true, "RLock": true, "Wait": true, "Do": true,
}

// blockingNetMethods are the I/O methods of net types.
var blockingNetMethods = map[string]bool{
	"Read": true, "Write": true, "Accept": true, "Close": true,
	"ReadFrom": true, "WriteTo": true,
}

// BlockingOp reports whether the node is an operation that can block
// the calling goroutine, with a short description for diagnostics.
func BlockingOp(info *types.Info, n ast.Node) (desc string, ok bool) {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send", true
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive", true
		}
	case *ast.SelectStmt:
		if selectHasDefault(n) {
			return "", false
		}
		return "blocking select", true
	case *ast.RangeStmt:
		if t := info.TypeOf(n.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				return "range over channel", true
			}
		}
	case *ast.CallExpr:
		return blockingCall(info, n)
	}
	return "", false
}

// blockingCall classifies call expressions.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if path, name, qualified := QualifiedName(info, sel); qualified {
		switch {
		case path == "time" && name == "Sleep":
			return "time.Sleep", true
		case path == "net" && blockingNetFuncs[name]:
			return "net." + name, true
		case pathBase(path) == "wire" && name == "ReadFrame":
			return "wire.ReadFrame (connection read)", true
		}
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "sync":
		if blockingSyncMethods[name] {
			return "sync." + recvTypeName(fn) + "." + name, true
		}
	case "net":
		if blockingNetMethods[name] {
			return "net." + recvTypeName(fn) + "." + name, true
		}
	default:
		// The live runtime's blocking bridges: Do and Await park the
		// caller until the protocol executor serves it — called on the
		// concrete livert.Runtime or through runtime.Driver, the
		// interface that names them.
		if recv := recvTypeName(fn); (name == "Do" || name == "Await") && (recv == "Runtime" || recv == "Driver") {
			return recv + "." + name + " (waits on the protocol executor)", true
		}
	}
	return "", false
}

// recvTypeName returns the name of a method's receiver type,
// unwrapping the pointer.
func recvTypeName(fn *types.Func) string {
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

// CommOps returns the top-level communication operations of a select's
// clauses: the SendStmt or receive expression of each comm clause.
// Whether those block is the select's decision — a default clause makes
// the whole statement a poll — so traversals that classify blocking
// operations node-by-node must skip these and judge the SelectStmt
// itself.
func CommOps(sel *ast.SelectStmt) []ast.Node {
	var out []ast.Node
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		switch comm := cc.Comm.(type) {
		case *ast.SendStmt:
			out = append(out, comm)
		case *ast.ExprStmt:
			out = append(out, comm.X)
		case *ast.AssignStmt:
			for _, r := range comm.Rhs {
				out = append(out, r)
			}
		}
	}
	return out
}

// selectHasDefault reports whether a select statement has a default
// clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
