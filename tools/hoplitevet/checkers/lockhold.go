package checkers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hoplite/tools/hoplitevet/analysis"
)

// LockHold enforces the "no I/O under a mutex" invariant: while a
// sync.Mutex or sync.RWMutex acquired in the same function is held, the
// function must not perform wire/transport calls, spill or file I/O,
// time.Sleep, or blocking channel sends. Mutexes in this codebase guard
// in-memory maps and counters; holding one across I/O serializes the
// data plane behind the slowest peer (the convoy behind PR 3's
// chunk-lease redesign).
//
// The tracking is optimistic where control flow forks: a lock released
// in any branch is treated as released afterwards, so only I/O that is
// unambiguously under the lock is reported. Deliberate exceptions are
// annotated `//hoplite:locked-io <reason>`.
var LockHold = &analysis.Analyzer{
	Name: "lockhold",
	Doc:  "check that no blocking I/O or channel send happens while a locally acquired mutex is held",
	Run:  runLockHold,
}

type lockEvent struct {
	pos token.Pos // where the lock was taken
}

func runLockHold(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass, file.FileStart) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkHeldList(pass, fd.Body.List, map[string]lockEvent{})
			// Function literals run on their own goroutine or call path;
			// each is checked as an independent lock scope.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					// Returning true still visits literals nested inside
					// this one; walkHeldList itself never descends into
					// them, so each body is walked exactly once.
					walkHeldList(pass, fl.Body.List, map[string]lockEvent{})
				}
				return true
			})
		}
	}
	return nil
}

func walkHeldList(pass *analysis.Pass, stmts []ast.Stmt, held map[string]lockEvent) {
	for _, s := range stmts {
		walkHeldStmt(pass, s, held)
	}
}

func copyHeld(held map[string]lockEvent) map[string]lockEvent {
	c := make(map[string]lockEvent, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

// mergeUnlocks removes from held any lock that some branch released.
func mergeUnlocks(held map[string]lockEvent, branches ...map[string]lockEvent) {
	for key := range held {
		for _, b := range branches {
			if _, still := b[key]; !still {
				delete(held, key)
				break
			}
		}
	}
}

func walkHeldStmt(pass *analysis.Pass, s ast.Stmt, held map[string]lockEvent) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			switch key, op := lockOp(pass, call); op {
			case opLock:
				held[key] = lockEvent{pos: call.Pos()}
				return
			case opUnlock:
				delete(held, key)
				return
			}
		}
		checkBlockingExpr(pass, s.X, held)

	case *ast.DeferStmt:
		// `defer mu.Unlock()` (directly or via a closure) means the lock
		// is held for the remainder of the function — which is exactly
		// the region already being tracked, so nothing changes here.
		return

	case *ast.GoStmt:
		// The spawned goroutine does not hold this function's locks.
		return

	case *ast.SendStmt:
		reportHeld(pass, s.Arrow, "channel send", held)
		checkBlockingExpr(pass, s.Value, held)

	case *ast.AssignStmt, *ast.DeclStmt, *ast.ReturnStmt, *ast.IncDecStmt:
		checkBlockingExpr(pass, s, held)

	case *ast.BlockStmt:
		walkHeldList(pass, s.List, held)

	case *ast.LabeledStmt:
		walkHeldStmt(pass, s.Stmt, held)

	case *ast.IfStmt:
		if s.Init != nil {
			walkHeldStmt(pass, s.Init, held)
		}
		checkBlockingExpr(pass, s.Cond, held)
		then := copyHeld(held)
		walkHeldList(pass, s.Body.List, then)
		els := copyHeld(held)
		if s.Else != nil {
			walkHeldStmt(pass, s.Else, els)
		}
		mergeUnlocks(held, then, els)

	case *ast.ForStmt:
		if s.Init != nil {
			walkHeldStmt(pass, s.Init, held)
		}
		checkBlockingExpr(pass, s.Cond, held)
		body := copyHeld(held)
		walkHeldList(pass, s.Body.List, body)
		mergeUnlocks(held, body)

	case *ast.RangeStmt:
		checkBlockingExpr(pass, s.X, held)
		body := copyHeld(held)
		walkHeldList(pass, s.Body.List, body)
		mergeUnlocks(held, body)

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var clauses []ast.Stmt
		if sw, ok := s.(*ast.SwitchStmt); ok {
			if sw.Init != nil {
				walkHeldStmt(pass, sw.Init, held)
			}
			checkBlockingExpr(pass, sw.Tag, held)
			clauses = sw.Body.List
		} else {
			ts := s.(*ast.TypeSwitchStmt)
			if ts.Init != nil {
				walkHeldStmt(pass, ts.Init, held)
			}
			clauses = ts.Body.List
		}
		var outs []map[string]lockEvent
		for _, cl := range clauses {
			cc := cl.(*ast.CaseClause)
			branch := copyHeld(held)
			walkHeldList(pass, cc.Body, branch)
			outs = append(outs, branch)
		}
		mergeUnlocks(held, outs...)

	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		var outs []map[string]lockEvent
		for _, cl := range s.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			branch := copyHeld(held)
			if send, ok := cc.Comm.(*ast.SendStmt); ok && !hasDefault {
				// With a default clause the send is non-blocking; without
				// one the select parks while the lock is held.
				reportHeld(pass, send.Arrow, "channel send", branch)
			}
			walkHeldList(pass, cc.Body, branch)
			outs = append(outs, branch)
		}
		mergeUnlocks(held, outs...)
	}
}

// checkBlockingExpr reports blocking calls in an expression or statement
// evaluated while locks are held. Function literals are skipped: their
// bodies run later, on a path checked separately.
func checkBlockingExpr(pass *analysis.Pass, n ast.Node, held map[string]lockEvent) {
	if n == nil || len(held) == 0 {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if desc, ok := blockingCall(pass, m); ok {
				reportHeld(pass, m.Pos(), desc, held)
			}
		}
		return true
	})
}

func reportHeld(pass *analysis.Pass, pos token.Pos, what string, held map[string]lockEvent) {
	if len(held) == 0 || suppressed(pass, pos, tagLockedIO) {
		return
	}
	// Report against one held lock (the map iteration picks it); one
	// diagnostic per site is enough to flag the convoy.
	for key, ev := range held {
		pass.Reportf(pos, "%s while %s is held (locked at line %d); release the lock first or annotate //hoplite:%s",
			what, key, pass.Position(ev.pos).Line, tagLockedIO)
		return
	}
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp classifies a call as taking or releasing a sync mutex, keyed by
// the receiver expression's source text.
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (string, lockOpKind) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", opNone
	}
	key := types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return key, opLock
	case "Unlock", "RUnlock":
		return key, opUnlock
	}
	return "", opNone
}

var osBlockingFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true,
	"Remove": true, "RemoveAll": true, "Rename": true, "Truncate": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
}

var osBlockingMethods = map[string]bool{
	"Read": true, "Write": true, "ReadAt": true, "WriteAt": true,
	"ReadFrom": true, "Seek": true, "Sync": true, "Close": true, "Truncate": true,
}

// wireSendMethods write a frame on the caller's goroutine when the
// connection is idle, so each may block in conn.Write.
var wireSendMethods = map[string]bool{
	"Client.Go": true, "Client.Call": true, "Peer.Notify": true,
}

// recvName is the name of the type of sig's receiver ("" if unnamed).
func recvName(sig *types.Signature) string {
	if named := namedOf(sig.Recv().Type()); named != nil {
		return named.Obj().Name()
	}
	return ""
}

// blockingCall classifies calls that can block on I/O or time.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	var fn *types.Func
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = pass.TypesInfo.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = pass.TypesInfo.Uses[f.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	path, name := fn.Pkg().Path(), fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	switch {
	case path == "time" && name == "Sleep":
		return "time.Sleep", true
	case path == "os" && !isMethod && osBlockingFuncs[name]:
		return "file I/O (os." + name + ")", true
	case path == "os" && isMethod && osBlockingMethods[name]:
		return "file I/O (os." + name + ")", true
	case path == "net":
		return "network I/O (net." + name + ")", true
	case path == "bufio" && name == "Flush":
		return "buffered I/O flush", true
	case pkgSuffixMatch(fn.Pkg(), "internal/wire") && (hasAnyPrefix(name, "Read", "Write") || isMethod && wireSendMethods[recvName(sig)+"."+name]):
		return "wire I/O (wire." + name + ")", true
	case pkgSuffixMatch(fn.Pkg(), "internal/transport") && hasAnyPrefix(name, "Pull", "Serve", "Dial", "Send", "Recv", "Read", "Write"):
		return "transport I/O (transport." + name + ")", true
	case pkgSuffixMatch(fn.Pkg(), "internal/spill") && hasAnyPrefix(name, "Read", "Write", "Open", "Remove", "Reserve", "Close"):
		return "spill I/O (spill." + name + ")", true
	}
	return "", false
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
