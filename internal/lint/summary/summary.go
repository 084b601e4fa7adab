// Package summary computes bottom-up per-function facts over a
// callgraph.Graph: may-return-nil (with the "nil only alongside a
// non-nil error" correlation constructors promise), the WaitGroup/
// channel tokens a goroutine join protocol is built from, location
// taint (taint.go) and the concurrency facts (conc.go).
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

	// Tokens are the join-protocol operations in the function body:
	// which WaitGroups it Waits on or Dones, which channels it closes
	// or receives from. Variables are identified by *types.Var, so a
	// struct field used from two methods matches.
	Tokens Tokens

	// Loc is the location-taint summary (see taint.go): which results
	// carry raw location data, which parameters feed escaping sinks,
	// and the internally-sourced sink flows the privtaint analyzer
	// reports.
	Loc LocFacts

	// Conc is the concurrency summary (see conc.go): field accesses
	// with their locksets, channel-field operations and ordering
	// issues, calls annotated with the lockset held, blocking sites,
	// and goroutine/channel escape bitsets.
	Conc ConcFacts
}

// Tokens records drain/join protocol operations by variable identity.
type Tokens struct {
	WgDone  []*types.Var // wg.Done() calls
	WgWait  []*types.Var // wg.Wait() calls
	ChClose []*types.Var // close(ch) calls
	ChRecv  []*types.Var // <-ch or range ch receives
}

// Merge folds o's tokens into t (set union by variable identity).
func (t *Tokens) Merge(o Tokens) {
	t.WgDone = appendVars(t.WgDone, o.WgDone)
	t.WgWait = appendVars(t.WgWait, o.WgWait)
	t.ChClose = appendVars(t.ChClose, o.ChClose)
	t.ChRecv = appendVars(t.ChRecv, o.ChRecv)
}

func appendVars(dst, src []*types.Var) []*types.Var {
	for _, v := range src {
		if !containsVar(dst, v) {
			dst = append(dst, v)
		}
	}
	return dst
}

func containsVar(vs []*types.Var, v *types.Var) bool {
	for _, w := range vs {
		if w == v {
			return true
		}
	}
	return false
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
	// Direct (local) facts first.
	for _, n := range g.Nodes() {
		s.facts[n] = c.directFacts(n)
	}
	// Then the bottom-up fixpoints over the condensation: the nilness
	// facts, the location-taint lattice, and the concurrency lattice
	// (independent lattices, so they converge separately; all are
	// monotone).
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
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				if c.concFlow(n) {
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

// directFacts computes the facts visible in n's own body.
func (c *computer) directFacts(n *callgraph.Node) *Facts {
	f := &Facts{}
	sig := n.Func.Type().(*types.Signature)
	f.ResultMayNil = make([]bool, sig.Results().Len())

	if n.Decl.Body == nil {
		return f
	}
	f.Tokens = ScanTokens(n.Pkg.TypesInfo, n.Decl.Body)
	f.Conc = c.concScan(n)
	return f
}

// rootVar peels selector/index/star/paren chains down to the base
// identifier's variable: p.wg → p, m[k].f → m, *p → p.
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
