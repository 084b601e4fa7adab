package lint

import (
	"go/ast"
	"go/types"

	"locwatch/internal/lint/analysis"
)

// LockedMap flags unguarded writes to shared state inside `go func`
// closures — the bug class the experiment fan-out loops in
// internal/experiments and internal/market are structured to avoid:
//
//   - any write to a map captured from the enclosing function;
//   - reassignment of a captured slice or map variable (s = append(s, …));
//   - element writes s[i] = v where the index is itself captured, so
//     concurrent goroutines can collide on one element.
//
// Element writes whose index variable is declared inside the closure
// (the `for i := range jobs` worker-pool idiom, where each index is
// processed by exactly one goroutine) are accepted, as is any write
// made while a sync.Mutex/RWMutex is held in the same block. Handing
// results over a channel instead of writing shared state never trips
// the analyzer because no captured write occurs.
var LockedMap = &analysis.Analyzer{
	Name: "lockedmap",
	Doc: "flags writes to captured maps and slices inside go-statement closures " +
		"that are not guarded by a mutex",
	Run: runLockedMap,
}

func runLockedMap(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				checkGoClosure(pass, lit)
			}
			return true
		})
	}
	return nil
}

func checkGoClosure(pass *analysis.Pass, lit *ast.FuncLit) {
	analysis.WithStack(lit.Body, func(n ast.Node, ancestors []ast.Node) bool {
		// The callback runs before n is pushed; the lock-scan needs the
		// full chain down to the write statement itself.
		stack := make([]ast.Node, len(ancestors)+1)
		copy(stack, ancestors)
		stack[len(ancestors)] = n
		switch n := n.(type) {
		case *ast.GoStmt:
			// A nested go closure is analyzed on its own; skip it here
			// so its writes are attributed to the innermost closure.
			if _, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				return false
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWriteTarget(pass, lit, lhs, stack)
			}
		case *ast.IncDecStmt:
			checkWriteTarget(pass, lit, n.X, stack)
		case *ast.CallExpr:
			// delete(m, k) mutates the map like an assignment does.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
				if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin {
					if mid, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok &&
						capturedVar(pass.TypesInfo.Uses[mid], lit) && !lockHeld(pass.TypesInfo, lit, stack) {
						pass.Reportf(n.Pos(),
							"delete from captured map %q inside go closure without holding a mutex", mid.Name)
					}
				}
			}
		}
		return true
	})
}

// checkWriteTarget inspects one write destination inside the closure.
func checkWriteTarget(pass *analysis.Pass, lit *ast.FuncLit, lhs ast.Expr, stack []ast.Node) {
	info := pass.TypesInfo
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		base := ast.Unparen(lhs.X)
		id, ok := base.(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Uses[id]
		if !capturedVar(obj, lit) {
			return
		}
		switch info.Types[base].Type.Underlying().(type) {
		case *types.Map:
			if !lockHeld(info, lit, stack) {
				pass.Reportf(lhs.Pos(),
					"write to captured map %q inside go closure without holding a mutex", id.Name)
			}
		case *types.Slice:
			if indexDeclaredInside(info, lhs.Index, lit) {
				return // disjoint-index worker-pool idiom
			}
			if !lockHeld(info, lit, stack) {
				pass.Reportf(lhs.Pos(),
					"write to captured slice %q at an index shared across goroutines without holding a mutex", id.Name)
			}
		}
	case *ast.Ident:
		obj := info.Uses[lhs]
		if !capturedVar(obj, lit) {
			return
		}
		switch obj.Type().Underlying().(type) {
		case *types.Map, *types.Slice:
			if !lockHeld(info, lit, stack) {
				pass.Reportf(lhs.Pos(),
					"reassignment of captured %q inside go closure without holding a mutex", lhs.Name)
			}
		}
	}
}

// capturedVar reports whether obj is a variable declared outside the
// closure (including package level).
func capturedVar(obj types.Object, lit *ast.FuncLit) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return !(v.Pos() >= lit.Pos() && v.Pos() <= lit.End())
}

// indexDeclaredInside reports whether the index expression is a plain
// variable declared within the closure — e.g. the loop variable of a
// `for i := range jobs` inside the goroutine, which yields disjoint
// indices per worker.
func indexDeclaredInside(info *types.Info, index ast.Expr, lit *ast.FuncLit) bool {
	id, ok := ast.Unparen(index).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Pos() >= lit.Pos() && v.Pos() <= lit.End()
}

// lockHeld reports whether, on the statement path leading to the write,
// some sync.Mutex/RWMutex Lock (or RLock) is pending without a matching
// Unlock earlier in the same block. The check is syntactic and
// block-local — the deliberate approximation is that the repo's
// fan-out sites take and release the lock in the same block as the
// write, which vet-style analyses can reason about reliably.
func lockHeld(info *types.Info, lit *ast.FuncLit, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		blk, ok := stack[i].(*ast.BlockStmt)
		if !ok || i+1 >= len(stack) {
			continue
		}
		entry := stack[i+1] // the statement (chain) containing the write
		locked := false
		for _, st := range blk.List {
			if st == entry {
				break
			}
			switch name := mutexCallName(info, st); name {
			case "Lock", "RLock":
				locked = true
			case "Unlock", "RUnlock":
				locked = false
			}
		}
		if locked {
			return true
		}
		if blk == lit.Body {
			break
		}
	}
	return false
}

// mutexCallName returns the method name when st is a bare call to a
// sync mutex method (mu.Lock(), mu.Unlock(), …), else "". Deferred
// unlocks do not clear the held state.
func mutexCallName(info *types.Info, st ast.Stmt) string {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return ""
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	return fn.Name()
}
