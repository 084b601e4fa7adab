package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/cfg"
)

// NilFacade is an intraprocedural nilness analyzer over the public
// facade's pointer types: *Config, *Profile, *ProfileBuilder,
// *Detector, *CombinedDetector and *Adversary. A nil *Profile reaching
// Profile.Compare corrupts the Deg_anonymity numbers with a panic deep
// inside an experiment fan-out, so the analyzer walks each function's
// control-flow graph (internal/lint/cfg) and reports any dereference
// of a tracked pointer that is reachable on a path where the value may
// be nil:
//
//   - declared `var p *Profile` and used before assignment on some path;
//   - assigned the nil literal and dereferenced before a guard;
//   - dereferenced inside the nil arm of its own `p == nil` guard (an
//     inverted guard).
//
// Comparisons against nil refine facts along both branch edges. Calls
// are assumed to return non-nil pointers; the one call shape that
// hands back nil, a constructor whose error was discarded, is
// errflow's. Tracking is by type *name*, so the analyzer covers the
// real facade packages and the analysistest stubs alike.
var NilFacade = &analysis.Analyzer{
	Name: "nilfacade",
	Doc: "flags dereferences of facade pointers (*Config, *Profile, *Detector, *Adversary, …) " +
		"reachable on a path where the value may be nil",
	Run: runNilFacade,
}

// facadeTypeNames are the tracked pointer element type names.
var facadeTypeNames = map[string]bool{
	"Config":           true,
	"Profile":          true,
	"ProfileBuilder":   true,
	"Detector":         true,
	"CombinedDetector": true,
	"Adversary":        true,
}

// nilFact is a may-analysis bitset.
type nilFact uint8

const (
	mayNil nilFact = 1 << iota
	mayNonNil
)

func runNilFacade(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for unit, body := range functionUnits(file) {
			checkNilFlow(pass, unit, body)
		}
	}
	return nil
}

// functionUnits returns every function body in the file keyed by its
// declaring node: top-level FuncDecls plus each FuncLit (closures are
// analyzed as their own unit; captured variables are left untracked so
// cross-timeline aliasing cannot produce false reports).
func functionUnits(file *ast.File) map[ast.Node]*ast.BlockStmt {
	units := make(map[ast.Node]*ast.BlockStmt)
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				units[n] = n.Body
			}
		case *ast.FuncLit:
			units[n] = n.Body
		}
		return true
	})
	return units
}

// trackedVar returns the facade pointer variable an identifier uses or
// defines, when that variable is local to the unit (declared inside it
// but not inside a nested closure), else nil.
func trackedVar(info *types.Info, id *ast.Ident, unit ast.Node, nested []*ast.FuncLit) *types.Var {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	ptr, ok := v.Type().(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || !facadeTypeNames[named.Obj().Name()] {
		return nil
	}
	if v.Pos() < unit.Pos() || v.Pos() > unit.End() {
		return nil // captured from an enclosing function
	}
	for _, lit := range nested {
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return nil // belongs to a nested closure's own unit
		}
	}
	return v
}

// nilState is the dataflow state: may-nil facts for tracked
// variables. Absence means untracked: nothing is reported about the
// variable.
type nilState map[*types.Var]nilFact

func (s nilState) clone() nilState {
	out := make(nilState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// join merges facts from two predecessors: bits union; a variable
// tracked on only one edge keeps that edge's facts (the other edge
// predates the variable's scope).
func (s nilState) join(other nilState) nilState {
	out := s.clone()
	for k, v := range other {
		out[k] |= v
	}
	return out
}

func (s nilState) equal(other nilState) bool {
	if len(s) != len(other) {
		return false
	}
	for k, v := range s {
		if other[k] != v {
			return false
		}
	}
	return true
}

// checkNilFlow runs the forward may-nil dataflow over one function
// unit and reports nil-reachable dereferences.
func checkNilFlow(pass *analysis.Pass, unit ast.Node, body *ast.BlockStmt) {
	graph := cfg.Build(body)
	reach := graph.Reachable()
	var nested []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != unit {
			nested = append(nested, lit)
		}
		return true
	})

	fl := &nilFlow{pass: pass, unit: unit, nested: nested, reported: map[token.Pos]bool{}}

	in := make(map[*cfg.Block]nilState)
	entry := graph.Blocks[0]
	in[entry] = nilState{}

	// Forward fixpoint. The lattice is finite (2 bits per tracked
	// variable), so this terminates.
	work := []*cfg.Block{entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		state := in[blk].clone()
		fl.report = false // fixpoint passes do not report
		trueState, falseState := fl.transferBlock(blk, state)
		for i, succ := range blk.Succs {
			next := state
			if blk.Cond != nil && len(blk.Succs) == 2 {
				if i == 0 {
					next = trueState
				} else {
					next = falseState
				}
			}
			merged := next
			if prev, ok := in[succ]; ok {
				merged = prev.join(next)
				if merged.equal(prev) {
					continue
				}
			}
			in[succ] = merged
			work = append(work, succ)
		}
	}

	// Reporting pass over the stabilized entry states.
	for _, blk := range graph.Blocks {
		if !reach[blk] {
			continue
		}
		state, ok := in[blk]
		if !ok {
			continue
		}
		fl.report = true
		fl.transferBlock(blk, state.clone())
	}
}

// nilFlow carries the per-unit context through block transfers.
type nilFlow struct {
	pass     *analysis.Pass
	unit     ast.Node
	nested   []*ast.FuncLit
	report   bool
	reported map[token.Pos]bool
}

// transferBlock applies every node of the block to the state in order
// and returns the refined states for the true and false branch edges
// when the block ends in a conditional branch.
func (fl *nilFlow) transferBlock(blk *cfg.Block, state nilState) (trueState, falseState nilState) {
	for _, n := range blk.Nodes {
		fl.transferNode(n, state)
	}
	trueState, falseState = state, state
	if blk.Cond != nil {
		trueState, falseState = fl.refine(blk.Cond, state)
	}
	return trueState, falseState
}

func (fl *nilFlow) transferNode(n ast.Node, state nilState) {
	switch n := n.(type) {
	case *ast.RangeStmt:
		// Shallow per cfg contract: X is used (check derefs), key and
		// value are defined fresh each iteration from a collection —
		// assume non-nil elements, matching classic nilness tools.
		fl.scanDerefs(n.X, state)
		for _, lhs := range []ast.Expr{n.Key, n.Value} {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				if v := fl.tracked(id); v != nil {
					state[v] = mayNonNil
				}
			}
		}
	case *ast.AssignStmt:
		fl.scanDerefs(n, state)
		fl.applyAssign(n, state)
	case *ast.DeclStmt:
		fl.scanDerefs(n, state)
		fl.applyDecl(n, state)
	case ast.Node:
		fl.scanDerefs(n, state)
	}
}

// tracked resolves an identifier to its tracked facade variable.
func (fl *nilFlow) tracked(id *ast.Ident) *types.Var {
	return trackedVar(fl.pass.TypesInfo, id, fl.unit, fl.nested)
}

// scanDerefs reports dereferences of possibly-nil variables inside n,
// against the pre-state. Nested closures are skipped (separate units);
// &x untracks x (the pointer may be written through the alias); the
// right operand of && and || is scanned under the left operand's
// refinement, so `p != nil && p.Ready()` stays silent.
func (fl *nilFlow) scanDerefs(n ast.Node, state nilState) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BinaryExpr:
			if m.Op == token.LAND || m.Op == token.LOR {
				fl.scanDerefs(m.X, state)
				trueState, falseState := fl.refine(m.X, state)
				if m.Op == token.LAND {
					fl.scanDerefs(m.Y, trueState)
				} else {
					fl.scanDerefs(m.Y, falseState)
				}
				return false
			}
		case *ast.UnaryExpr:
			if m.Op == token.AND {
				if id, ok := ast.Unparen(m.X).(*ast.Ident); ok {
					if v := fl.tracked(id); v != nil {
						delete(state, v)
					}
				}
			}
		case *ast.SelectorExpr:
			fl.checkDeref(ast.Unparen(m.X), state, "field or method selection")
		case *ast.StarExpr:
			fl.checkDeref(ast.Unparen(m.X), state, "pointer indirection")
		}
		return true
	})
}

func (fl *nilFlow) checkDeref(x ast.Expr, state nilState, what string) {
	id, ok := x.(*ast.Ident)
	if !ok {
		return
	}
	v := fl.tracked(id)
	if v == nil {
		return
	}
	if f, ok := state[v]; ok && f&mayNil != 0 {
		if fl.report && !fl.reported[id.Pos()] {
			fl.reported[id.Pos()] = true
			fl.pass.Reportf(id.Pos(),
				"%s may be nil at this %s; guard with a %s == nil check first", id.Name, what, id.Name)
		}
	}
}

// applyAssign updates facts for `p = …`, `p := …` and tuple forms.
func (fl *nilFlow) applyAssign(n *ast.AssignStmt, state nilState) {
	if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
		return
	}
	if len(n.Lhs) != len(n.Rhs) {
		// v, err := New(…) is assumed non-nil (errflow owns the
		// discarded-error case); v, ok := m[k] / x.(*T) / <-ch read a
		// container or channel the analysis cannot see into, so the
		// pointer is untracked.
		_, call := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
		for _, lhs := range n.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
				if v := fl.tracked(id); v != nil {
					if call {
						state[v] = mayNonNil
					} else {
						delete(state, v)
					}
				}
			}
		}
		return
	}
	for i, lhs := range n.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if v := fl.tracked(id); v != nil {
			state[v] = fl.rhsFact(n.Rhs[i], state)
		}
	}
}

// rhsFact evaluates the nilness of a single-value right-hand side:
// the nil literal is nil, a tracked variable carries its facts, and
// everything else, calls included, is optimistically non-nil.
func (fl *nilFlow) rhsFact(rhs ast.Expr, state nilState) nilFact {
	if e, ok := ast.Unparen(rhs).(*ast.Ident); ok {
		if e.Name == "nil" {
			return mayNil
		}
		if v := fl.tracked(e); v != nil {
			if f, ok := state[v]; ok {
				return f
			}
		}
	}
	return mayNonNil
}

// applyDecl handles `var p *Profile` (nil until assigned) and
// `var p = expr`.
func (fl *nilFlow) applyDecl(n *ast.DeclStmt, state nilState) {
	gd, ok := n.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			v := fl.tracked(name)
			if v == nil {
				continue
			}
			switch {
			case len(vs.Values) == 0:
				state[v] = mayNil // zero value
			case len(vs.Values) == len(vs.Names):
				state[v] = fl.rhsFact(vs.Values[i], state)
			default:
				state[v] = mayNonNil
			}
		}
	}
}

// refine splits the state along the branch edges of a condition:
// `p == nil` / `p != nil` comparisons introduce or sharpen facts
// (tracking starts at the first comparison even for parameters — a
// compared pointer is one the author considers nilable), `!c` swaps
// the arms, and `a && b` / `a || b` compose refinements along the
// short-circuit edge that actually constrains them.
func (fl *nilFlow) refine(cond ast.Expr, state nilState) (trueState, falseState nilState) {
	trueState, falseState = state, state
	switch e := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			t, f := fl.refine(e.X, state)
			return f, t
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			// true ⇒ both true; false tells us nothing about either.
			t1, _ := fl.refine(e.X, state)
			t2, _ := fl.refine(e.Y, t1)
			return t2, state
		case token.LOR:
			// false ⇒ both false; true tells us nothing.
			_, f1 := fl.refine(e.X, state)
			_, f2 := fl.refine(e.Y, f1)
			return state, f2
		case token.EQL, token.NEQ:
			var id *ast.Ident
			x, y := ast.Unparen(e.X), ast.Unparen(e.Y)
			switch {
			case isNilExpr(y):
				id, _ = x.(*ast.Ident)
			case isNilExpr(x):
				id, _ = y.(*ast.Ident)
			}
			if id == nil {
				return
			}
			if v := fl.tracked(id); v != nil {
				nilSide, nonNilSide := state.clone(), state.clone()
				nilSide[v] = mayNil
				nonNilSide[v] = mayNonNil
				if e.Op == token.EQL {
					return nilSide, nonNilSide
				}
				return nonNilSide, nilSide
			}
		}
	}
	return
}

func isNilExpr(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
