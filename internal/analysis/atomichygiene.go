package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicHygiene flags two classic shared-memory mistakes:
//
//  1. Mixed atomic/plain access: a struct field passed by address to a
//     sync/atomic function (atomic.AddInt64(&x.n, 1)) is an atomic
//     field; any plain read or write of the same field elsewhere tears.
//     (Method-style atomic.Int64 fields are immune by construction —
//     the toolchain's copylocks vet already polices those.)
//  2. Lock-region leaks: a field written while a sync.Mutex/RWMutex
//     field of the same struct is held is lock-guarded; plain writes,
//     and plain reads outside any lock region, race with the guarded
//     writers. Constructors and init functions are exempt (the value is
//     not shared yet). caladan.ULock regions are deliberately out of
//     scope: ULock orders uthreads inside one virtual node and implies
//     nothing about real-thread visibility.
//
// Lock regions are tracked per function, path-sensitively, with the
// same defer semantics as lockorder: a deferred unlock holds until
// function exit. AtomicHygiene is a global analyzer (see runner.go).
var AtomicHygiene = &Analyzer{
	Name:   "atomichygiene",
	Doc:    "forbid mixed atomic/plain field access and plain access to mutex-guarded fields outside the lock",
	Global: true,
	Run:    runAtomicHygiene,
}

func runAtomicHygiene(pass *Pass) {
	if pass.Mod == nil || pass.Mod.atomicH == nil {
		return
	}
	for _, d := range pass.Mod.atomicH.findings {
		if d.Pkg == pass.Pkg {
			pass.Reportf(d.Pos, "%s", d.Msg)
		}
	}
}

// fieldKey identifies one struct field module-wide.
type fieldKey struct {
	owner *types.TypeName
	field string
}

func (k fieldKey) String() string {
	return k.owner.Pkg().Path() + "." + k.owner.Name() + "." + k.field
}

// fieldAccess is one plain (non-atomic) access site.
type fieldAccess struct {
	pkg     *Package
	pos     token.Pos
	fn      string
	write   bool
	initCtx bool
	guarded bool // inside a lock region of the owning struct's mutex
}

// atomicInfo is the module-wide access classification.
type atomicInfo struct {
	findings []modDiag
}

func computeAtomicHygiene(mod *ModuleInfo) {
	ai := &atomicInfo{}
	mod.atomicH = ai

	atomicFields := map[fieldKey]bool{}         // fields accessed via sync/atomic funcs
	atomicSites := map[*ast.SelectorExpr]bool{} // the &x.f selectors inside those calls
	guardedWrite := map[fieldKey]token.Pos{}    // first lock-guarded write per field
	var accesses []struct {
		key fieldKey
		acc fieldAccess
	}

	// Pass 1 per function: find sync/atomic address-of args, and walk the
	// body with mutex-region tracking to classify every field access.
	for _, fn := range mod.Nodes {
		pkg := fn.Pkg
		if pkg.Info == nil {
			continue
		}
		ast.Inspect(fn.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok || !isAtomicFuncCall(pkg.Info, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if key, ok := fieldKeyOf(pkg.Info, sel); ok {
					atomicFields[key] = true
					atomicSites[sel] = true
				}
			}
			return true
		})
	}
	for _, fn := range mod.Nodes {
		pkg := fn.Pkg
		if pkg.Info == nil {
			continue
		}
		w := &regionWalker{pkg: pkg, fn: fn, initCtx: confInitContext(fn)}
		w.record = func(key fieldKey, acc fieldAccess) {
			if acc.guarded && acc.write && !acc.initCtx {
				if _, ok := guardedWrite[key]; !ok {
					guardedWrite[key] = acc.pos
				}
			}
			accesses = append(accesses, struct {
				key fieldKey
				acc fieldAccess
			}{key, acc})
		}
		w.atomicSites = atomicSites
		w.stmts(fn.Decl.Body.List, map[string]bool{})
	}

	// Judgement. Atomic mixing: every plain access to an atomic field.
	// Lock leaks: once any guarded write exists for a field, unguarded
	// non-init writes and reads are findings.
	for _, a := range accesses {
		key, acc := a.key, a.acc
		if atomicFields[key] && !acc.initCtx {
			verb := "read"
			if acc.write {
				verb = "written"
			}
			ai.findings = append(ai.findings, modDiag{
				Pkg: acc.pkg, Pos: acc.pos,
				Msg: fmt.Sprintf("%s: field %s is accessed with sync/atomic elsewhere; this plain access is %s non-atomically and can tear", acc.fn, key, verb),
			})
			continue
		}
		lockPos, locked := guardedWrite[key]
		if !locked || acc.guarded || acc.initCtx {
			continue
		}
		_ = lockPos
		if acc.write {
			ai.findings = append(ai.findings, modDiag{
				Pkg: acc.pkg, Pos: acc.pos,
				Msg: fmt.Sprintf("%s: field %s is written under its mutex elsewhere; this unguarded write races with the lock region", acc.fn, key),
			})
		} else {
			ai.findings = append(ai.findings, modDiag{
				Pkg: acc.pkg, Pos: acc.pos,
				Msg: fmt.Sprintf("%s: field %s is written inside a lock region elsewhere; this plain read outside the lock can observe a torn or stale value", acc.fn, key),
			})
		}
	}
}

// isAtomicFuncCall reports a call to a function of package sync/atomic
// (atomic.AddInt64, atomic.StorePointer, ... — not the method forms).
func isAtomicFuncCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "sync/atomic"
}

// fieldKeyOf resolves x.f to its owning named struct field, requiring a
// genuine struct field (not a package selector or method value).
func fieldKeyOf(info *types.Info, sel *ast.SelectorExpr) (fieldKey, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return fieldKey{}, false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return fieldKey{}, false
	}
	t := tv.Type
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return fieldKey{}, false
	}
	if _, ok := named.Obj().Type().Underlying().(*types.Struct); !ok {
		return fieldKey{}, false
	}
	return fieldKey{owner: named.Obj(), field: sel.Sel.Name}, true
}

// syncMutexRecv reports whether a lock call's receiver is a sync.Mutex /
// sync.RWMutex struct field, returning the base expression rendering
// ("s", for s.mu.Lock()) used to scope the region to that instance.
func syncMutexRecv(info *types.Info, call *ast.CallExpr) (base string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", false
	}
	recv := ast.Unparen(sel.X)
	rs, okRecv := recv.(*ast.SelectorExpr)
	if !okRecv {
		return "", false
	}
	tv, okType := info.Types[recv]
	if !okType || tv.Type == nil {
		return "", false
	}
	named, okNamed := tv.Type.(*types.Named)
	if !okNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", false
	}
	if n := named.Obj().Name(); n != "Mutex" && n != "RWMutex" {
		return "", false
	}
	return exprString(rs.X), true
}

// regionWalker walks one function tracking which struct instances have a
// sync mutex field held ("locked bases"), classifying every plain field
// access it passes. Deferred unlocks hold to function end, mirroring
// lockorder's semantics; branches are walked with clones and the live
// outcomes unioned (may-unguarded biases toward reporting).
type regionWalker struct {
	pkg         *Package
	fn          *FuncNode
	initCtx     bool
	atomicSites map[*ast.SelectorExpr]bool
	record      func(fieldKey, fieldAccess)
}

func (w *regionWalker) stmts(list []ast.Stmt, locked map[string]bool) (map[string]bool, bool) {
	for _, s := range list {
		var term bool
		locked, term = w.stmt(s, locked)
		if term {
			return locked, true
		}
	}
	return locked, false
}

func cloneSet(m map[string]bool) map[string]bool {
	c := make(map[string]bool, len(m))
	for k := range m {
		c[k] = true
	}
	return c
}

// intersectSet keeps bases locked on both paths: must-locked biases
// against claiming an access was guarded when one path skipped the Lock.
func intersectSet(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func (w *regionWalker) stmt(s ast.Stmt, locked map[string]bool) (map[string]bool, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if _, kind := lockCall(call); kind != "" {
				if base, isSync := syncMutexRecv(w.pkg.Info, call); isSync {
					switch kind {
					case "lock":
						locked[base] = true
					case "unlock":
						delete(locked, base)
					}
					return locked, false
				}
			}
			if isPanicCall(call) {
				w.scan(s.X, locked, nil)
				return locked, true
			}
		}
		w.scan(s.X, locked, nil)
	case *ast.DeferStmt:
		// Deferred unlock: the region extends to function end; nothing to
		// remove. Deferred lock (bizarre) or other calls: scan normally.
		if _, kind := lockCall(s.Call); kind == "unlock" {
			if _, isSync := syncMutexRecv(w.pkg.Info, s.Call); isSync {
				return locked, false
			}
		}
		w.scan(s.Call, locked, nil)
	case *ast.GoStmt:
		// The goroutine body runs without this frame's lock regions.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.stmts(lit.Body.List, map[string]bool{})
		}
		for _, arg := range s.Call.Args {
			w.scan(arg, locked, nil)
		}
	case *ast.AssignStmt:
		writes := map[ast.Node]bool{}
		for _, lhs := range s.Lhs {
			writes[ast.Unparen(lhs)] = true
			w.scan(lhs, locked, writes)
		}
		for _, rhs := range s.Rhs {
			w.scan(rhs, locked, nil)
		}
	case *ast.IncDecStmt:
		writes := map[ast.Node]bool{ast.Unparen(s.X): true}
		w.scan(s.X, locked, writes)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			w.scan(res, locked, nil)
		}
		return locked, true
	case *ast.BlockStmt:
		return w.stmts(s.List, locked)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, locked)
	case *ast.IfStmt:
		if s.Init != nil {
			locked, _ = w.stmt(s.Init, locked)
		}
		w.scan(s.Cond, locked, nil)
		bodyL, bodyTerm := w.stmts(s.Body.List, cloneSet(locked))
		elseL, elseTerm := locked, false
		if s.Else != nil {
			elseL, elseTerm = w.stmt(s.Else, cloneSet(locked))
		}
		switch {
		case bodyTerm && elseTerm:
			return locked, true
		case bodyTerm:
			return elseL, false
		case elseTerm:
			return bodyL, false
		default:
			return intersectSet(bodyL, elseL), false
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			locked, _ = w.stmt(s.Init, locked)
		}
		if s.Tag != nil {
			w.scan(s.Tag, locked, nil)
		}
		return w.branches(s.Body, locked)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			locked, _ = w.stmt(s.Init, locked)
		}
		return w.branches(s.Body, locked)
	case *ast.SelectStmt:
		return w.branches(s.Body, locked)
	case *ast.ForStmt:
		if s.Init != nil {
			locked, _ = w.stmt(s.Init, locked)
		}
		if s.Cond != nil {
			w.scan(s.Cond, locked, nil)
		}
		w.stmts(s.Body.List, cloneSet(locked))
	case *ast.RangeStmt:
		w.scan(s.X, locked, nil)
		w.stmts(s.Body.List, cloneSet(locked))
	case *ast.BranchStmt:
		return locked, true
	default:
		w.scan(s, locked, nil)
	}
	return locked, false
}

func (w *regionWalker) branches(body *ast.BlockStmt, locked map[string]bool) (map[string]bool, bool) {
	var live []map[string]bool
	hasDefault := false
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			stmts = c.Body
			if c.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			stmts = c.Body
			if c.Comm == nil {
				hasDefault = true
			}
		}
		out, term := w.stmts(stmts, cloneSet(locked))
		if !term {
			live = append(live, out)
		}
	}
	if !hasDefault {
		live = append(live, locked)
	}
	if len(live) == 0 {
		return locked, true
	}
	out := live[0]
	for _, o := range live[1:] {
		out = intersectSet(out, o)
	}
	return out, false
}

// scan classifies the field accesses under n. writes marks the selector
// nodes that are assignment targets. Function literals are walked where
// they appear: they execute on this frame unless spawned (GoStmt handles
// that case above).
func (w *regionWalker) scan(n ast.Node, locked map[string]bool, writes map[ast.Node]bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if w.atomicSites[sel] {
			return false // the sanctioned atomic access itself
		}
		key, ok := fieldKeyOf(w.pkg.Info, sel)
		if !ok {
			return true
		}
		base := ""
		if rs, ok := ast.Unparen(sel).(*ast.SelectorExpr); ok {
			base = exprString(rs.X)
		}
		w.record(key, fieldAccess{
			pkg:     w.pkg,
			pos:     sel.Pos(),
			fn:      w.fn.Decl.Name.Name,
			write:   writes[ast.Unparen(sel)] || writes[sel],
			initCtx: w.initCtx,
			guarded: locked[base],
		})
		return true
	})
}
