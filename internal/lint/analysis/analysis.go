// Package analysis is a dependency-free miniature of
// golang.org/x/tools/go/analysis: just enough of the Analyzer/Pass
// surface for locwatch's domain analyzers. The build environment bakes
// in the Go toolchain but no third-party modules, so the real x/tools
// framework is not importable; this package keeps the same shape so the
// analyzers can be ported verbatim if that changes (see ROADMAP.md).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// directives. It must be a valid identifier.
	Name string

	// Doc is a one-paragraph description of what the analyzer flags.
	Doc string

	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one analyzed package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // non-test files of the package
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records a diagnostic.
	Report func(Diagnostic)
}

// Reportf records a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Preorder walks every node of every file in depth-first preorder.
func Preorder(files []*ast.File, fn func(ast.Node)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil {
				fn(n)
			}
			return true
		})
	}
}

// WithStack walks root in preorder, passing each node and the stack of
// its ancestors (outermost first, not including n itself). Returning
// false prunes the subtree below n.
func WithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// CalleeFunc returns the *types.Func a call statically resolves to
// (a named function or method), or nil for calls through function
// values, built-ins and type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// IsNamed reports whether t (after pointer indirection) is the named
// type pkgName.typeName. Matching is by package *name* rather than
// import path so analyzers work both on the real module packages and on
// stub packages under analysistest testdata.
func IsNamed(t types.Type, pkgName, typeName string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == typeName &&
		obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}
