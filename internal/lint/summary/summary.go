// Package summary computes bottom-up per-function facts over a
// callgraph.Graph: may-return-nil (with the "nil only alongside a
// non-nil error" correlation constructors promise) and location taint
// (taint.go).
//
// The lattice is boolean and monotone (facts only flip false→true), so
// one pass over the SCC condensation in callee-first order, iterating
// each SCC to a local fixpoint, reaches the global fixpoint.
//
// Facts are deliberately optimistic where the program is opaque: a call
// into an unanalyzed package is assumed to return non-nil and a
// function parameter is assumed non-nil (the caller's analysis handles
// its own locals).
package summary

import (
	"go/ast"
	"go/types"

	"locwatch/internal/lint/callgraph"
)

// Facts is the summary of one function.
type Facts struct {
	// ResultMayNil has one entry per result of the signature; true
	// means some path returns a possibly-nil value for that (pointer-
	// typed) result. Non-pointer results are always false.
	ResultMayNil []bool

	// NilOnlyWithError reports that every path returning a may-nil
	// pointer result also returns a non-nil error as the trailing
	// result — the constructor contract callers rely on when they
	// check err before using the pointer.
	NilOnlyWithError bool

	// Loc is the location-taint summary (see taint.go): which results
	// carry raw location data, which parameters feed escaping sinks,
	// and the internally-sourced sink flows the privtaint analyzer
	// reports.
	Loc LocFacts
}

// Set holds the computed summaries for one graph.
type Set struct {
	Graph *callgraph.Graph
	facts map[*callgraph.Node]*Facts
}

// Of returns the facts for fn, or nil when fn has no node in the
// graph (external or unanalyzed).
func (s *Set) Of(fn *types.Func) *Facts {
	if fn == nil {
		return nil
	}
	return s.facts[s.Graph.Node(fn.Origin())]
}

// OfNode returns the facts for a graph node.
func (s *Set) OfNode(n *callgraph.Node) *Facts { return s.facts[n] }

// Compute runs the summary pass over every node of g.
func Compute(g *callgraph.Graph) *Set {
	s := &Set{Graph: g, facts: make(map[*callgraph.Node]*Facts, len(g.Nodes()))}
	c := &computer{set: s, locTypes: &locTypes{memo: make(map[types.Type]bool)}}
	for _, n := range g.Nodes() {
		sig := n.Func.Type().(*types.Signature)
		s.facts[n] = &Facts{ResultMayNil: make([]bool, sig.Results().Len())}
	}
	// Then the bottom-up fixpoints over the condensation: the nilness
	// facts and the location-taint lattice (independent lattices, so
	// they converge separately; both are monotone).
	for _, scc := range g.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				if c.resultFacts(n, s.facts[n]) {
					changed = true
				}
			}
		}
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				if c.locFlow(n) {
					changed = true
				}
			}
		}
	}
	return s
}

type computer struct {
	set *Set
	// inProgress guards the variable classification in varMayNil
	// against assignment cycles (p = q; q = p).
	inProgress map[*types.Var]bool
	// locTypes memoizes the location-bearing type classification
	// shared by every locEval (taint.go).
	locTypes *locTypes
}

// rootVar peels selector/index/star/paren chains down to the base
// identifier's variable: p.f → p, m[k].f → m, *p → p.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			if v == nil {
				v, _ = info.Defs[x].(*types.Var)
			}
			return v
		default:
			return nil
		}
	}
}
