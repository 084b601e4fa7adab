package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"locwatch/internal/lint/analysis"
)

// AngleUnits flags degree/radian unit mismatches, the classic silent
// geometry corruption:
//
//   - a degree-carrying value (a *Deg/*Degrees-named identifier, or a
//     geo.LatLon Lat/Lon field, which are documented degrees) passed
//     straight into math.Sin/Cos/Tan/Sincos, which take radians;
//   - a radian-carrying value (*Rad/*Radians-named, or an x*degToRad
//     product) passed to a parameter whose name says degrees, and vice
//     versa.
//
// Unit identity is inferred from naming plus the degToRad/radToDeg
// conversion idiom used throughout internal/geo; expressions whose unit
// cannot be inferred are never flagged.
var AngleUnits = &analysis.Analyzer{
	Name: "angleunits",
	Doc: "flags degree-valued expressions passed to radian trig functions " +
		"and degree/radian parameter mismatches",
	Run: runAngleUnits,
}

// radianTrig is the set of math functions taking an angle in radians.
var radianTrig = map[string]bool{"Sin": true, "Cos": true, "Tan": true, "Sincos": true}

var (
	degNameRe = regexp.MustCompile(`(Deg|Degrees|deg|degrees)$`)
	radNameRe = regexp.MustCompile(`(Rad|Radians|rad|radians)$`)
)

// conversion constants: never themselves angle values.
var conversionConsts = map[string]bool{"degToRad": true, "radToDeg": true}

func runAngleUnits(pass *analysis.Pass) error {
	analysis.Preorder(pass.Files, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "math" && radianTrig[fn.Name()] {
			for _, arg := range call.Args {
				if argAngleUnit(pass.TypesInfo, arg) == unitDeg {
					pass.Reportf(arg.Pos(),
						"degree-valued %s passed to math.%s, which takes radians; multiply by degToRad",
						exprString(arg), fn.Name())
				}
			}
			return
		}
		checkParamUnits(pass, call, fn)
	})
	return nil
}

// checkParamUnits compares the declared unit of each parameter name
// against the inferred unit of the argument.
func checkParamUnits(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if i >= params.Len() {
			break
		}
		pname := params.At(i).Name()
		pUnit := nameAngleUnit(pname)
		if pUnit == unitNone {
			continue
		}
		aUnit := argAngleUnit(pass.TypesInfo, arg)
		if aUnit == unitNone || aUnit == pUnit {
			continue
		}
		pass.Reportf(arg.Pos(),
			"%s-valued %s passed to parameter %q of %s, which expects %s",
			unitName(aUnit), exprString(arg), pname, fn.Name(), unitName(pUnit))
	}
}

type angleUnit int

const (
	unitNone angleUnit = iota
	unitDeg
	unitRad
)

func unitName(u angleUnit) string {
	if u == unitDeg {
		return "degree"
	}
	return "radian"
}

// nameAngleUnit classifies an identifier name by its suffix.
func nameAngleUnit(name string) angleUnit {
	if conversionConsts[name] {
		return unitNone
	}
	switch {
	case degNameRe.MatchString(name):
		return unitDeg
	case radNameRe.MatchString(name):
		return unitRad
	}
	return unitNone
}

// argAngleUnit infers the unit of an argument expression: a suffixed
// name, a geo.LatLon Lat/Lon field (degrees), or a top-level product
// with degToRad (radians) / radToDeg (degrees).
func argAngleUnit(info *types.Info, e ast.Expr) angleUnit {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		return nameAngleUnit(e.Name)
	case *ast.SelectorExpr:
		if (e.Sel.Name == "Lat" || e.Sel.Name == "Lon") &&
			analysis.IsNamed(info.Types[e.X].Type, "geo", "LatLon") {
			return unitDeg
		}
		return nameAngleUnit(e.Sel.Name)
	case *ast.BinaryExpr:
		if e.Op != token.MUL {
			return unitNone
		}
		for _, op := range []ast.Expr{e.X, e.Y} {
			if id, ok := ast.Unparen(op).(*ast.Ident); ok {
				switch id.Name {
				case "degToRad":
					return unitRad
				case "radToDeg":
					return unitDeg
				}
			}
		}
	}
	return unitNone
}

// exprString renders a short description of e for diagnostics.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return "\"" + e.Name + "\""
	case *ast.SelectorExpr:
		if x, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			return "\"" + x.Name + "." + e.Sel.Name + "\""
		}
		return "\"" + e.Sel.Name + "\""
	default:
		return "expression"
	}
}
