package checkers

import (
	"go/ast"
	"go/types"

	"hoplite/tools/hoplitevet/analysis"
)

// SleepLoop enforces two liveness conventions:
//
//   - no time.Sleep inside a for/range loop in non-test code: poll loops
//     burn CPU, add tail latency, and hide missing notification paths
//     (the store and directory expose watchers precisely so callers never
//     need to poll). A sleep that models time rather than polling —
//     simulated compute, benchmark think time — is annotated
//     `//hoplite:sleep-ok <reason>`.
//
//   - a function that takes a context.Context takes it as the first
//     parameter, so call sites read uniformly and cancellation plumbing is
//     impossible to miss. Deliberate exceptions are annotated
//     `//hoplite:ctx-order <reason>`.
var SleepLoop = &analysis.Analyzer{
	Name: "sleeploop",
	Doc:  "check for time.Sleep poll loops and misplaced context.Context parameters",
	Run:  runSleepLoop,
}

func runSleepLoop(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass, file.FileStart) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkCtxFirst(pass, fd)
			if fd.Body != nil {
				checkSleepLoops(pass, fd.Body, false)
			}
		}
	}
	return nil
}

// checkSleepLoops reports time.Sleep calls lexically inside a loop.
// Function literals reset the loop context: a closure defined in a loop
// runs on its own schedule, and loops inside closures count on their own.
func checkSleepLoops(pass *analysis.Pass, n ast.Node, inLoop bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.ForStmt:
			if m.Init != nil {
				checkSleepLoops(pass, m.Init, inLoop)
			}
			if m.Cond != nil {
				checkSleepLoops(pass, m.Cond, inLoop)
			}
			if m.Post != nil {
				checkSleepLoops(pass, m.Post, inLoop)
			}
			checkSleepLoops(pass, m.Body, true)
			return false
		case *ast.RangeStmt:
			checkSleepLoops(pass, m.X, inLoop)
			checkSleepLoops(pass, m.Body, true)
			return false
		case *ast.FuncLit:
			checkSleepLoops(pass, m.Body, false)
			return false
		case *ast.CallExpr:
			if inLoop && isTimeSleep(pass, m) && !suppressed(pass, m.Pos(), tagSleepOK) {
				pass.Reportf(m.Pos(), "time.Sleep in a loop is a poll loop; block on a watcher/channel/ctx instead or annotate //hoplite:%s", tagSleepOK)
			}
		}
		return true
	})
}

func isTimeSleep(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Name() == "Sleep" && fn.Pkg() != nil && fn.Pkg().Path() == "time"
}

// checkCtxFirst reports functions whose context.Context parameter is not
// the first parameter.
func checkCtxFirst(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	flatIdx := 0
	for _, field := range fd.Type.Params.List {
		width := len(field.Names)
		if width == 0 {
			width = 1
		}
		if isContextType(pass, field.Type) && flatIdx > 0 {
			if !suppressed(pass, fd.Pos(), tagCtxOrder) && !suppressed(pass, field.Pos(), tagCtxOrder) {
				pass.Reportf(field.Pos(), "context.Context must be the first parameter of %s so cancellation is uniform at call sites (or annotate //hoplite:%s)", fd.Name.Name, tagCtxOrder)
			}
			return
		}
		flatIdx += width
	}
}

func isContextType(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
