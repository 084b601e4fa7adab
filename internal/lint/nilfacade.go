package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/cfg"
	"locwatch/internal/lint/summary"
)

// NilFacade is an interprocedural nilness analyzer over the public
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
//   - returned by a helper whose function summary
//     (internal/lint/summary) says some path returns nil — including
//     helpers in other packages, through arbitrarily deep call chains;
//   - dereferenced inside the nil arm of its own `p == nil` guard, or
//     inside the error arm of a constructor that returns nil exactly
//     when it errors.
//
// Constructors advertising the "nil only alongside a non-nil error"
// contract (summary.Facts.NilOnlyWithError) correlate their pointer
// result with their error result: checking `err != nil` clears the
// pointer on the success edge, so the idiomatic guard stays silent
// while a dereference in the error arm — or with the error discarded —
// is flagged. Comparisons against nil refine facts along both branch
// edges as before. Tracking is by type *name*, so the analyzer covers
// the real facade packages and the analysistest stubs alike; without a
// whole-program view (Pass.Program unset) helper calls degrade to the
// optimistic assumption of non-nil.
var NilFacade = &analysis.Analyzer{
	Name: "nilfacade",
	Doc: "flags dereferences of facade pointers (*Config, *Profile, *Detector, *Adversary, …) " +
		"reachable on a path where the value may be nil, tracking nil returns through helpers",
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

// nilState is the dataflow state: may-nil facts for tracked variables
// (absence means untracked — nothing is reported about the variable)
// plus the error-correlation relation for constructor results.
type nilState struct {
	facts map[*types.Var]nilFact
	// corr maps a local error variable to the facade variables whose
	// nilness it witnesses: per the constructor's NilOnlyWithError
	// contract, err == nil implies every correlated pointer is
	// non-nil. Entries die when either variable is reassigned.
	corr map[*types.Var]map[*types.Var]bool
}

// Both maps are always non-nil: nilState travels by value through the
// transfer functions, so mutations must go through the shared maps —
// lazily allocating corr inside a transfer would only update the copy.
func newNilState() nilState {
	return nilState{
		facts: make(map[*types.Var]nilFact),
		corr:  make(map[*types.Var]map[*types.Var]bool),
	}
}

func (s nilState) clone() nilState {
	out := newNilState()
	for k, v := range s.facts {
		out.facts[k] = v
	}
	for e, set := range s.corr {
		cp := make(map[*types.Var]bool, len(set))
		for v := range set {
			cp[v] = true
		}
		out.corr[e] = cp
	}
	return out
}

// join merges facts from two predecessors: bits union; a variable
// tracked on only one edge keeps that edge's facts (the other edge
// predates the variable's scope). Correlations merge by intersection —
// a contract both edges agree on — because keeping a one-sided
// correlation would let an err check clear a pointer the other path
// never tied to it.
func (s nilState) join(other nilState) nilState {
	out := s.clone()
	for k, v := range other.facts {
		out.facts[k] |= v
	}
	merged := make(map[*types.Var]map[*types.Var]bool)
	for e, set := range s.corr {
		oset, ok := other.corr[e]
		if !ok {
			continue
		}
		both := make(map[*types.Var]bool)
		for v := range set {
			if oset[v] {
				both[v] = true
			}
		}
		if len(both) > 0 {
			merged[e] = both
		}
	}
	out.corr = merged
	return out
}

func (s nilState) equal(other nilState) bool {
	if len(s.facts) != len(other.facts) || len(s.corr) != len(other.corr) {
		return false
	}
	for k, v := range s.facts {
		if other.facts[k] != v {
			return false
		}
	}
	for e, set := range s.corr {
		oset, ok := other.corr[e]
		if !ok || len(oset) != len(set) {
			return false
		}
		for v := range set {
			if !oset[v] {
				return false
			}
		}
	}
	return true
}

// reassign records that v received a new value: any correlation it
// participated in — as the error witness or as the witnessed pointer —
// no longer holds.
func (s *nilState) reassign(v *types.Var) {
	if v == nil || s.corr == nil {
		return
	}
	delete(s.corr, v)
	for e, set := range s.corr {
		delete(set, v)
		if len(set) == 0 {
			delete(s.corr, e)
		}
	}
}

// correlate records err ⇒ the given facade vars under the constructor
// contract.
func (s *nilState) correlate(err *types.Var, facades []*types.Var) {
	if err == nil || len(facades) == 0 {
		return
	}
	if s.corr == nil {
		s.corr = make(map[*types.Var]map[*types.Var]bool)
	}
	set := make(map[*types.Var]bool, len(facades))
	for _, v := range facades {
		set[v] = true
	}
	s.corr[err] = set
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
	if prog := program(pass); prog != nil {
		fl.sums = prog.Sums
	}

	in := make(map[*cfg.Block]nilState)
	entry := graph.Blocks[0]
	in[entry] = newNilState()

	// Forward fixpoint. The lattice is finite (2 bits per tracked
	// variable, correlations only shrink after creation), so this
	// terminates.
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
	sums     *summary.Set // nil when the driver supplied no program
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
				state.reassign(fl.anyVar(id))
				if v := fl.tracked(id); v != nil {
					state.facts[v] = mayNonNil
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

// anyVar resolves an identifier to whatever variable it names (used
// for correlation bookkeeping on error variables).
func (fl *nilFlow) anyVar(id *ast.Ident) *types.Var {
	obj := fl.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = fl.pass.TypesInfo.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// calleeFacts returns the function summary of a call's static callee,
// or nil without a program / for dynamic and external callees.
func (fl *nilFlow) calleeFacts(call *ast.CallExpr) *summary.Facts {
	if fl.sums == nil {
		return nil
	}
	return fl.sums.Of(analysis.CalleeFunc(fl.pass.TypesInfo, call))
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
						delete(state.facts, v)
						state.reassign(v)
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
	if f, ok := state.facts[v]; ok && f&mayNil != 0 {
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
	// Tuple from one call: v, err := NewDetector(…). The callee's
	// function summary decides whether the pointer may be nil; when
	// the summary also promises "nil only alongside a non-nil error",
	// the pointer and the error variable are correlated so a
	// subsequent err check refines the pointer.
	if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			cf := fl.calleeFacts(call)
			var errVar *types.Var
			var correlated []*types.Var
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				av := fl.anyVar(id)
				state.reassign(av)
				if v := fl.tracked(id); v != nil {
					if cf != nil && i < len(cf.ResultMayNil) && cf.ResultMayNil[i] {
						state.facts[v] = mayNil | mayNonNil
						if cf.NilOnlyWithError {
							correlated = append(correlated, v)
						}
					} else {
						state.facts[v] = mayNonNil
					}
				} else if av != nil && i == len(n.Lhs)-1 && isErrorType(av.Type()) {
					errVar = av
				}
			}
			state.correlate(errVar, correlated)
			return
		}
	}
	if len(n.Lhs) != len(n.Rhs) {
		// v, ok := m[k] / x.(*T) / <-ch: the pointer's provenance is a
		// container or channel the analysis cannot see into — untrack.
		for _, lhs := range n.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
				state.reassign(fl.anyVar(id))
				if v := fl.tracked(id); v != nil {
					delete(state.facts, v)
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
		state.reassign(fl.anyVar(id))
		v := fl.tracked(id)
		if v == nil {
			continue
		}
		state.facts[v] = fl.rhsFact(n.Rhs[i], state)
	}
}

// rhsFact evaluates the nilness of a single-value right-hand side. A
// call consults the callee's function summary: a helper some path of
// which returns nil taints the variable, everything else — external
// calls included — is optimistically non-nil.
func (fl *nilFlow) rhsFact(rhs ast.Expr, state nilState) nilFact {
	switch e := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		if e.Name == "nil" {
			return mayNil
		}
		if v := fl.tracked(e); v != nil {
			if f, ok := state.facts[v]; ok {
				return f
			}
		}
		return mayNonNil
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return mayNonNil // &T{…}
		}
	case *ast.CallExpr:
		if cf := fl.calleeFacts(e); cf != nil && len(cf.ResultMayNil) == 1 && cf.ResultMayNil[0] {
			return mayNil | mayNonNil
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
				state.facts[v] = mayNil // zero value
			case len(vs.Values) == len(vs.Names):
				state.facts[v] = fl.rhsFact(vs.Values[i], state)
			default:
				state.facts[v] = mayNonNil
			}
		}
	}
}

// refine splits the state along the branch edges of a condition:
// `p == nil` / `p != nil` comparisons introduce or sharpen facts
// (tracking starts at the first comparison even for parameters — a
// compared pointer is one the author considers nilable), `err == nil`
// checks on a correlated constructor error clear the correlated
// pointers on the success edge, `!c` swaps the arms, and `a && b` /
// `a || b` compose refinements along the short-circuit edge that
// actually constrains them.
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
				nilSide.facts[v] = mayNil
				nonNilSide.facts[v] = mayNonNil
				if e.Op == token.EQL {
					return nilSide, nonNilSide
				}
				return nonNilSide, nilSide
			}
			// err == nil on a correlated constructor error: the
			// contract makes every correlated pointer non-nil on the
			// err-nil edge; the err-non-nil edge keeps its may-nil
			// facts, which is exactly where a dereference is unsafe.
			if ev := fl.anyVar(id); ev != nil && state.corr[ev] != nil {
				errNilSide := state.clone()
				for v := range state.corr[ev] {
					errNilSide.facts[v] = mayNonNil
				}
				if e.Op == token.EQL {
					return errNilSide, state
				}
				return state, errNilSide
			}
		}
	}
	return
}

func isNilExpr(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// isErrorType reports whether t is exactly the built-in error type.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
