package analysis

import (
	"go/ast"
	"go/types"
)

// NakedGo forbids raw goroutines. The simulation permits exactly one
// concurrency mechanism: sim.Proc coroutines, which the engine resumes
// one at a time in deterministic event order. A naked `go` statement
// races the OS scheduler against the virtual clock. iter.Pull and
// iter.Pull2 start a coroutine goroutine of their own, so any reference
// that resolves to them (by type information, not by name) is flagged
// too. The single sanctioned launch site (the iter.Pull backing a Proc
// in internal/sim) carries an //easyio:allow nakedgo comment.
var NakedGo = &Analyzer{
	Name: "nakedgo",
	Doc:  "forbid go statements and iter.Pull coroutines — concurrency must go through sim.Proc",
	Run:  runNakedGo,
}

func runNakedGo(pass *Pass) {
	info := pass.Pkg.Info
	pass.walkFiles(func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "naked goroutine defeats deterministic scheduling; use Engine.NewProc / Runtime.Spawn")
			case *ast.Ident:
				if info == nil {
					break
				}
				if fn, ok := info.Uses[n].(*types.Func); ok && isIterPull(fn) {
					pass.Reportf(n.Pos(), "iter.%s starts a coroutine goroutine outside the engine; use Engine.NewProc / Runtime.Spawn", fn.Name())
				}
			}
			return true
		})
	})
}

// isIterPull reports whether fn is the standard library's iter.Pull or
// iter.Pull2, through any import name or instantiation.
func isIterPull(fn *types.Func) bool {
	fn = fn.Origin()
	if fn.Pkg() == nil || fn.Pkg().Path() != "iter" {
		return false
	}
	return fn.Name() == "Pull" || fn.Name() == "Pull2"
}
