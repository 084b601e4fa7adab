// Join-token extraction: the WaitGroup/channel operations a goroutine
// lifecycle protocol is made of, keyed by variable identity so the
// same struct field seen from different methods (p.wg in the worker
// and p.wg in Close) resolves to one token.

package summary

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ScanTokens collects the join-protocol operations lexically inside
// root (function literals included — a drain inside a closure the
// function runs still counts as that function's protocol).
func ScanTokens(info *types.Info, root ast.Node) Tokens {
	var t Tokens
	ast.Inspect(root, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			switch fun := ast.Unparen(m.Fun).(type) {
			case *ast.SelectorExpr:
				v := tokenVar(info, fun.X)
				if v == nil || !isWaitGroup(v.Type()) {
					break
				}
				switch fun.Sel.Name {
				case "Done":
					t.WgDone = appendVars(t.WgDone, []*types.Var{v})
				case "Wait":
					t.WgWait = appendVars(t.WgWait, []*types.Var{v})
				}
			case *ast.Ident:
				if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin && fun.Name == "close" && len(m.Args) == 1 {
					if v := tokenVar(info, m.Args[0]); v != nil && isChan(v.Type()) {
						t.ChClose = appendVars(t.ChClose, []*types.Var{v})
					}
				}
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				if v := tokenVar(info, m.X); v != nil && isChan(v.Type()) {
					t.ChRecv = appendVars(t.ChRecv, []*types.Var{v})
				}
			}
		case *ast.RangeStmt:
			if v := tokenVar(info, m.X); v != nil && isChan(v.Type()) {
				t.ChRecv = appendVars(t.ChRecv, []*types.Var{v})
			}
		}
		return true
	})
	return t
}

// tokenVar resolves the variable an expression names: a plain
// identifier (local, parameter) or the field of a selector chain
// (p.wg → the wg field). Anything else — map elements, function
// results — has no stable identity and yields nil.
func tokenVar(info *types.Info, e ast.Expr) *types.Var {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return v
		}
		v, _ := info.Defs[x].(*types.Var)
		return v
	case *ast.SelectorExpr:
		v, _ := info.Uses[x.Sel].(*types.Var)
		return v
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return tokenVar(info, x.X)
		}
	case *ast.StarExpr:
		return tokenVar(info, x.X)
	}
	return nil
}

func isWaitGroup(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Name() == "sync"
}

func isChan(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
