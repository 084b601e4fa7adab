// May-return-nil classification: a syntactic, optimistic walk over the
// return statements of a declaration. Provable nil sources — nil
// literals, zero-valued pointer declarations, transitive may-nil callee
// results — mark a result may-nil; everything opaque (parameters,
// struct fields, slice/map elements, external calls) is assumed
// non-nil. The bias matches nilfacade's reporting contract: flag only
// derefs with a concrete nil-producing path, never "could not prove".

package summary

import (
	"go/ast"
	"go/types"

	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/callgraph"
)

// resultFacts recomputes ResultMayNil and NilOnlyWithError for n,
// reporting whether either changed. Called repeatedly inside the SCC
// fixpoint; ResultMayNil only flips false→true and NilOnlyWithError
// only true→false, so iteration converges.
func (c *computer) resultFacts(n *callgraph.Node, f *Facts) bool {
	sig := n.Func.Type().(*types.Signature)
	results := sig.Results()
	nres := results.Len()
	if nres == 0 || n.Decl.Body == nil {
		return false
	}
	pointerResult := false
	for i := 0; i < nres; i++ {
		if _, ok := results.At(i).Type().Underlying().(*types.Pointer); ok {
			pointerResult = true
		}
	}
	if !pointerResult {
		return false
	}
	errIdx := -1
	if isErrorType(results.At(nres - 1).Type()) {
		errIdx = nres - 1
	}

	// Return statements of this declaration only — returns inside
	// nested function literals belong to the literal, not to n.
	var returns []*ast.ReturnStmt
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if r, ok := m.(*ast.ReturnStmt); ok {
			returns = append(returns, r)
		}
		return true
	})

	mayNil := make([]bool, nres)
	violated := false
	for _, r := range returns {
		retNil := make([]bool, nres)
		errNonNil := false
		switch {
		case len(r.Results) == nres && nres > 0:
			for i, e := range r.Results {
				if i == errIdx {
					// A non-literal error expression is assumed
					// non-nil at this return: the dominant shape is
					// `if err != nil { return nil, err }`. Documented
					// caveat in DESIGN §6.
					errNonNil = !isNilIdent(n.Pkg.TypesInfo, e)
					continue
				}
				if _, ok := results.At(i).Type().Underlying().(*types.Pointer); ok {
					retNil[i] = c.exprMayNil(n, e)
				}
			}
		case len(r.Results) == 1 && nres > 1:
			// return f() forwarding a tuple: inherit the callee's facts.
			call, ok := ast.Unparen(r.Results[0]).(*ast.CallExpr)
			if !ok {
				continue
			}
			cf := c.callFacts(n, call)
			if cf == nil {
				errNonNil = true // opaque callee: optimistic
				break
			}
			copy(retNil, cf.ResultMayNil)
			errNonNil = cf.NilOnlyWithError
		case len(r.Results) == 0:
			// Bare return with named results: classify each named var.
			for i := 0; i < nres; i++ {
				v := results.At(i)
				if i == errIdx {
					// The named error's value at a bare return is
					// whatever was last assigned — unknowable here, so
					// assume the worst for the correlation.
					errNonNil = false
					continue
				}
				if _, ok := v.Type().Underlying().(*types.Pointer); ok && v.Name() != "" {
					retNil[i] = c.varMayNil(n, v)
				}
			}
		}
		for i, rn := range retNil {
			if rn {
				mayNil[i] = true
				if errIdx >= 0 && !errNonNil {
					violated = true
				}
			}
		}
	}
	changed := false
	for i, m := range mayNil {
		if m && !f.ResultMayNil[i] {
			f.ResultMayNil[i] = true
			changed = true
		}
	}
	corr := errIdx >= 0 && !violated
	if corr != f.NilOnlyWithError {
		f.NilOnlyWithError = corr
		changed = true
	}
	return changed
}

// exprMayNil reports whether e can evaluate to nil, per the optimistic
// classification in the package comment.
func (c *computer) exprMayNil(n *callgraph.Node, e ast.Expr) bool {
	info := n.Pkg.TypesInfo
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if isNilIdent(info, x) {
			return true
		}
		v, _ := info.Uses[x].(*types.Var)
		if v == nil {
			return false
		}
		return c.varMayNil(n, v)
	case *ast.CallExpr:
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
			// Conversion (*T)(e): nilness of the operand.
			return len(x.Args) == 1 && c.exprMayNil(n, x.Args[0])
		}
		cf := c.callFacts(n, x)
		return cf != nil && len(cf.ResultMayNil) > 0 && cf.ResultMayNil[0]
	}
	// &T{}, composite literals, new(T), selectors, index expressions,
	// type assertions, derefs: assumed non-nil.
	return false
}

// callFacts resolves a call's static callee and returns its summary,
// or nil for dynamic/external/builtin callees.
func (c *computer) callFacts(n *callgraph.Node, call *ast.CallExpr) *Facts {
	return c.set.Of(analysis.CalleeFunc(n.Pkg.TypesInfo, call))
}

// varMayNil classifies a local or named-result pointer variable by
// scanning its assignments in n's body. No assignments at all means
// the zero value (nil) is live; otherwise the result is the union of
// the assigned values' classifications, which over-approximates `var
// p *T` declarations followed by unconditional assignment — see the
// DESIGN §6 caveats.
func (c *computer) varMayNil(n *callgraph.Node, v *types.Var) bool {
	if c.inProgress == nil {
		c.inProgress = make(map[*types.Var]bool)
	}
	if c.inProgress[v] {
		return false // assignment cycle: stay optimistic, fixpoint catches real flows
	}
	c.inProgress[v] = true
	defer delete(c.inProgress, v)

	info := n.Pkg.TypesInfo
	// Parameters and receivers are the caller's concern.
	sig := n.Func.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == v {
			return false
		}
	}
	if sig.Recv() == v {
		return false
	}

	found := false
	mayNil := false
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.ValueSpec:
			for _, name := range m.Names {
				if info.Defs[name] != v {
					continue
				}
				found = true
				if len(m.Values) == 0 {
					mayNil = true // zero value of a pointer
				} else if len(m.Values) == len(m.Names) {
					for i, nm := range m.Names {
						if info.Defs[nm] == v && c.exprMayNil(n, m.Values[i]) {
							mayNil = true
						}
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range m.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				if info.Defs[id] != v && info.Uses[id] != v {
					continue
				}
				found = true
				switch {
				case len(m.Lhs) == len(m.Rhs):
					if c.exprMayNil(n, m.Rhs[i]) {
						mayNil = true
					}
				case len(m.Rhs) == 1:
					if call, ok := ast.Unparen(m.Rhs[0]).(*ast.CallExpr); ok {
						if cf := c.callFacts(n, call); cf != nil && i < len(cf.ResultMayNil) && cf.ResultMayNil[i] {
							mayNil = true
						}
					}
					// Two-value map/assert/recv forms and opaque
					// calls: assumed non-nil.
				}
			}
		case *ast.RangeStmt:
			for _, cl := range []ast.Expr{m.Key, m.Value} {
				if id, ok := cl.(*ast.Ident); ok && (info.Defs[id] == v || info.Uses[id] == v) {
					found = true
				}
			}
		}
		return true
	})
	if !found {
		return true // never assigned: the zero value (nil) is what's returned
	}
	return mayNil
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj() != nil && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
