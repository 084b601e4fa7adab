package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"locwatch/internal/lint/analysis"
)

// LatLonBounds flags geo.LatLon composite literals built from values
// not provably inside the canonical coordinate ranges. Constant fields
// are checked against [-90, 90] / [-180, 180]; non-constant fields are
// accepted only when the constructed value flows through a Valid()
// check in the same function (the validator pattern internal/trace/plt
// uses for parsed records). Package geo itself is exempt: the defining
// package owns the invariant and produces coordinates from already
// validated inputs (projection inverses, destination points).
var LatLonBounds = &analysis.Analyzer{
	Name: "latlonbounds",
	Doc: "flags geo.LatLon constructed from constants outside [-90,90]/[-180,180] " +
		"or from unvalidated runtime values",
	Run: runLatLonBounds,
}

func runLatLonBounds(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "geo" {
		return nil
	}
	for _, file := range pass.Files {
		analysis.WithStack(file, func(n ast.Node, stack []ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[lit]
			if !ok || !analysis.IsNamed(tv.Type, "geo", "LatLon") {
				return true
			}
			checkLatLonLit(pass, lit, stack)
			return true
		})
	}
	return nil
}

func checkLatLonLit(pass *analysis.Pass, lit *ast.CompositeLit, stack []ast.Node) {
	unvalidated := false
	for i, elt := range lit.Elts {
		field, expr := latLonField(lit, i, elt)
		if field == "" {
			continue
		}
		tv := pass.TypesInfo.Types[expr]
		if tv.Value != nil {
			limit := 90.0
			if field == "Lon" {
				limit = 180.0
			}
			if v, ok := constant.Float64Val(constant.ToFloat(tv.Value)); ok && (v < -limit || v > limit) {
				pass.Reportf(expr.Pos(),
					"geo.LatLon %s %v outside [%v, %v]", field, tv.Value, -limit, limit)
			}
			continue
		}
		unvalidated = true
	}
	if unvalidated && !latLonValidated(pass, lit, stack) {
		pass.Reportf(lit.Pos(),
			"geo.LatLon constructed from unvalidated non-constant values; "+
				"check Valid() on the result or derive it through a geo helper")
	}
}

// latLonField maps the i-th element of the literal to the Lat or Lon
// field and its value expression.
func latLonField(lit *ast.CompositeLit, i int, elt ast.Expr) (string, ast.Expr) {
	if kv, ok := elt.(*ast.KeyValueExpr); ok {
		if key, ok := kv.Key.(*ast.Ident); ok && (key.Name == "Lat" || key.Name == "Lon") {
			return key.Name, kv.Value
		}
		return "", nil
	}
	switch i {
	case 0:
		return "Lat", elt
	case 1:
		return "Lon", elt
	}
	return "", nil
}

// latLonValidated reports whether the literal's value is checked with
// Valid(): either invoked directly on the literal, or on the single
// variable the literal is assigned to, anywhere in the enclosing
// function.
func latLonValidated(pass *analysis.Pass, lit *ast.CompositeLit, stack []ast.Node) bool {
	// geo.LatLon{...}.Valid()
	if len(stack) > 0 {
		if sel, ok := stack[len(stack)-1].(*ast.SelectorExpr); ok && sel.Sel.Name == "Valid" {
			return true
		}
	}
	obj := assignedVar(pass.TypesInfo, lit, stack)
	if obj == nil {
		return false
	}
	fn := enclosingFunc(stack)
	body := funcBody(fn)
	if body == nil {
		return false
	}
	validated := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Valid" {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			validated = true
			return false
		}
		return true
	})
	return validated
}

// assignedVar returns the variable object the literal is directly
// assigned to (p := geo.LatLon{...} or var p = geo.LatLon{...}), if
// any.
func assignedVar(info *types.Info, lit *ast.CompositeLit, stack []ast.Node) types.Object {
	if len(stack) == 0 {
		return nil
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.AssignStmt:
		if len(parent.Lhs) != len(parent.Rhs) {
			return nil
		}
		for i, rhs := range parent.Rhs {
			if stripRef(rhs) != ast.Expr(lit) {
				continue
			}
			if id, ok := parent.Lhs[i].(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					return obj
				}
				return info.Uses[id]
			}
		}
	case *ast.ValueSpec:
		for i, rhs := range parent.Values {
			if stripRef(rhs) == ast.Expr(lit) && i < len(parent.Names) {
				return info.Defs[parent.Names[i]]
			}
		}
	case *ast.UnaryExpr:
		// &geo.LatLon{...} assigned to a variable: recurse one level.
		if parent.Op == token.AND && len(stack) > 1 {
			return assignedVar(info, lit, stack[:len(stack)-1])
		}
	}
	return nil
}

// stripRef unwraps parentheses and a leading & from e.
func stripRef(e ast.Expr) ast.Expr {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	return e
}
