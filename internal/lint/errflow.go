package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/cfg"
)

// ErrFlow is the errcheck-style analyzer: an `error` result that is
// dead on every control-flow path is a diagnostic. The risk pipeline
// signals bad inputs through errors (core.ErrNoProfile,
// stats.ErrDegenerate, loader failures); a dropped error turns a
// corrupted Table III reproduction into silence instead of a failure.
// Three bug shapes are reported:
//
//   - dropped: a call whose results include an error used as a bare
//     expression statement (also behind `go` / `defer`), discarding
//     the error without the explicit `_ =` marker;
//   - dead assignment: an error written to a variable that is
//     overwritten or abandoned before being read on every CFG path —
//     the `err = f(); err = g(); check(err)` shadow-overwrite bug the
//     compiler cannot catch;
//   - discarded constructor error: `x, _ := f(…)` where f returns a
//     pointer and an error and x is read afterwards. A constructor
//     returns nil exactly when it errs, so x is dereferenced on the
//     one path its discarded error warned about.
//
// Other deliberate discards stay silent: assigning to `_` is an explicit
// statement of intent, and calls whose error cannot usefully be
// handled are excluded errcheck-style (fmt.Print/Printf/Println to
// stdout, fmt.Fprint* to os.Stderr, and writes to the infallible
// in-memory writers *bytes.Buffer and *strings.Builder). Errors
// captured by closures or address-taken are conservatively treated as
// consumed.
var ErrFlow = &analysis.Analyzer{
	Name: "errflow",
	Doc: "flags error results that are dead on every path: dropped in expression " +
		"statements, overwritten before any read, or discarded beside a pointer result that is then used",
	Run: runErrFlow,
}

func runErrFlow(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		// Part 1: dropped error results (flow-insensitive).
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = ast.Unparen(n.X).(*ast.CallExpr)
			case *ast.GoStmt:
				call = n.Call
			case *ast.DeferStmt:
				call = n.Call
			}
			if call != nil {
				checkDroppedError(pass, call)
			}
			return true
		})
		// Part 2: dead error assignments (CFG liveness).
		for unit, body := range functionUnits(file) {
			checkErrLiveness(pass, unit, body)
		}
	}
	// Part 3: discarded constructor errors.
	lastUse := make(map[types.Object]token.Pos)
	for id, obj := range pass.TypesInfo.Uses {
		if id.Pos() > lastUse[obj] {
			lastUse[obj] = id.Pos()
		}
	}
	analysis.Preorder(pass.Files, func(n ast.Node) {
		if as, ok := n.(*ast.AssignStmt); ok {
			checkDiscardedConstructorError(pass, as, lastUse)
		}
	})
	return nil
}

// checkDiscardedConstructorError reports `x, _ := f(…)` (or `=`) when
// f returns a pointer and an error, the error goes to the blank
// identifier and x is read after the statement.
func checkDiscardedConstructorError(pass *analysis.Pass, as *ast.AssignStmt, lastUse map[types.Object]token.Pos) {
	if len(as.Rhs) != 1 || len(as.Lhs) < 2 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	results, ok := pass.TypesInfo.TypeOf(call).(*types.Tuple)
	if !ok || results.Len() != len(as.Lhs) {
		return
	}
	var blank *ast.Ident
	for i, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" && isErrorType(results.At(i).Type()) {
			blank = id
		}
	}
	if blank == nil {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if _, ok := results.At(i).Type().Underlying().(*types.Pointer); !ok {
			continue
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj != nil && lastUse[obj] > as.End() {
			pass.Reportf(blank.Pos(),
				"error result of %s is discarded but %s is used: it may be nil exactly when the error is set; check the error first",
				calleeLabel(pass.TypesInfo, call), id.Name)
		}
	}
}

// checkDroppedError reports a bare call discarding an error result.
func checkDroppedError(pass *analysis.Pass, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return // conversion, not a call
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return // builtin
	}
	results := sig.Results()
	errIdx := -1
	for i := 0; i < results.Len(); i++ {
		if isErrorType(results.At(i).Type()) {
			errIdx = i
		}
	}
	if errIdx < 0 {
		return
	}
	if excludedErrCall(pass.TypesInfo, call) {
		return
	}
	pass.Reportf(call.Pos(),
		"error result of %s is dropped; handle it, propagate it, or discard it explicitly with _ =",
		calleeLabel(pass.TypesInfo, call))
}

// excludedErrCall implements the errcheck-style default exclusions.
func excludedErrCall(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil {
		return false
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println":
			return true // stdout by convention
		case "Fprint", "Fprintf", "Fprintln":
			return len(call.Args) > 0 && infallibleWriter(info, call.Args[0])
		}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if infallibleWriterType(sig.Recv().Type()) && strings.HasPrefix(fn.Name(), "Write") {
			return true
		}
	}
	return false
}

// infallibleWriter reports whether the expression is os.Stderr or an
// in-memory writer whose Write never fails.
func infallibleWriter(info *types.Info, arg ast.Expr) bool {
	e := ast.Unparen(arg)
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if x, ok := ast.Unparen(sel.X).(*ast.Ident); ok && x.Name == "os" && sel.Sel.Name == "Stderr" {
			return true
		}
	}
	if tv, ok := info.Types[e]; ok {
		return infallibleWriterType(tv.Type)
	}
	return false
}

func infallibleWriterType(t types.Type) bool {
	return analysis.IsNamed(t, "bytes", "Buffer") || analysis.IsNamed(t, "strings", "Builder")
}

// calleeLabel renders the call target for the diagnostic.
func calleeLabel(info *types.Info, call *ast.CallExpr) string {
	if fn := analysis.CalleeFunc(info, call); fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return fmt.Sprintf("(%s).%s", sig.Recv().Type(), fn.Name())
		}
		if pkg := fn.Pkg(); pkg != nil {
			return pkg.Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return "this call"
}

// --- dead error assignments ---

// errEvent is one ordered def or use of an error variable.
type errEvent struct {
	v   *types.Var
	def bool
	// reportable defs are assignments with a right-hand side; zero
	// declarations (`var err error`) define but are never reported.
	reportable bool
	pos        token.Pos
}

// checkErrLiveness runs backward liveness over the unit's CFG and
// reports error assignments that are dead on every path.
func checkErrLiveness(pass *analysis.Pass, unit ast.Node, body *ast.BlockStmt) {
	graph := cfg.Build(body)
	reach := graph.Reachable()

	exempt := exemptErrVars(pass.TypesInfo, unit, body)
	isLocal := func(v *types.Var) bool {
		return v.Pos() >= unit.Pos() && v.Pos() <= unit.End() && !exempt[v]
	}

	// Named error results are implicitly read by every bare return and
	// by the function's fall-off-the-end epilogue via deferred writes;
	// collect them so returns count as uses.
	named := namedErrorResults(pass.TypesInfo, unit)

	events := make(map[*cfg.Block][]errEvent)
	for _, blk := range graph.Blocks {
		for _, n := range blk.Nodes {
			events[blk] = append(events[blk], nodeErrEvents(pass.TypesInfo, n, isLocal, named)...)
		}
	}

	// Backward fixpoint: liveIn[blk] = vars live at block entry.
	liveOut := make(map[*cfg.Block]map[*types.Var]bool)
	liveIn := make(map[*cfg.Block]map[*types.Var]bool)
	for changed := true; changed; {
		changed = false
		for i := len(graph.Blocks) - 1; i >= 0; i-- {
			blk := graph.Blocks[i]
			out := map[*types.Var]bool{}
			for _, succ := range blk.Succs {
				for v := range liveIn[succ] {
					out[v] = true
				}
			}
			liveOut[blk] = out
			in := map[*types.Var]bool{}
			for v := range out {
				in[v] = true
			}
			evs := events[blk]
			for j := len(evs) - 1; j >= 0; j-- {
				if evs[j].def {
					delete(in, evs[j].v)
				} else {
					in[evs[j].v] = true
				}
			}
			if !sameVarSet(in, liveIn[blk]) {
				liveIn[blk] = in
				changed = true
			}
		}
	}

	// Report defs that are dead immediately after they happen.
	for _, blk := range graph.Blocks {
		if !reach[blk] {
			continue
		}
		live := map[*types.Var]bool{}
		for v := range liveOut[blk] {
			live[v] = true
		}
		evs := events[blk]
		for j := len(evs) - 1; j >= 0; j-- {
			ev := evs[j]
			if ev.def {
				if ev.reportable && !live[ev.v] {
					pass.Reportf(ev.pos,
						"error assigned to %s is never read: it is overwritten or abandoned on every path",
						ev.v.Name())
				}
				delete(live, ev.v)
			} else {
				live[ev.v] = true
			}
		}
	}
}

func sameVarSet(a, b map[*types.Var]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// exemptErrVars returns error variables the liveness analysis must not
// reason about: captured by a nested closure or address-taken, so
// reads can happen on another timeline.
func exemptErrVars(info *types.Info, unit ast.Node, body *ast.BlockStmt) map[*types.Var]bool {
	exempt := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && isErrorType(v.Type()) {
						if v.Pos() < n.Pos() || v.Pos() > n.End() {
							exempt[v] = true // captured
						}
					}
				}
				return true
			})
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && isErrorType(v.Type()) {
						exempt[v] = true
					}
				}
			}
		}
		return true
	})
	return exempt
}

// namedErrorResults returns the unit's named error result variables.
func namedErrorResults(info *types.Info, unit ast.Node) []*types.Var {
	var ftype *ast.FuncType
	switch unit := unit.(type) {
	case *ast.FuncDecl:
		ftype = unit.Type
	case *ast.FuncLit:
		ftype = unit.Type
	}
	if ftype == nil || ftype.Results == nil {
		return nil
	}
	var out []*types.Var
	for _, field := range ftype.Results.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok && isErrorType(v.Type()) {
				out = append(out, v)
			}
		}
	}
	return out
}

// nodeErrEvents extracts the ordered error-variable defs and uses of
// one CFG node. Uses come before defs within an assignment (RHS
// evaluates first); nested closures are opaque (their captures are
// exempt anyway).
func nodeErrEvents(info *types.Info, n ast.Node, isLocal func(*types.Var) bool, named []*types.Var) []errEvent {
	var events []errEvent
	use := func(e ast.Expr) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if id, ok := m.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && isErrorType(v.Type()) && isLocal(v) {
					events = append(events, errEvent{v: v, pos: id.Pos()})
				}
			}
			return true
		})
	}
	def := func(e ast.Expr, reportable bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok && isErrorType(v.Type()) && isLocal(v) {
			events = append(events, errEvent{v: v, def: true, reportable: reportable, pos: id.Pos()})
		}
	}

	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			use(rhs)
		}
		for _, lhs := range n.Lhs {
			if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				def(lhs, true)
			} else {
				use(lhs) // err.(*T).field = … style: reads the base
			}
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						use(val)
					}
					for _, name := range vs.Names {
						def(name, len(vs.Values) > 0)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			use(r)
		}
		if len(n.Results) == 0 {
			for _, v := range named {
				events = append(events, errEvent{v: v, pos: n.Pos()})
			}
		}
	case *ast.RangeStmt:
		use(n.X)
		// Range over []error is exotic; treat key/value as
		// non-reportable defs.
		for _, lhs := range []ast.Expr{n.Key, n.Value} {
			if lhs != nil {
				def(lhs, false)
			}
		}
	case ast.Stmt:
		// Everything else (ExprStmt, IfStmt init handled by cfg,
		// SendStmt, IncDec, Go/Defer, …): every identifier read is a
		// use; there are no defs.
		if e, ok := n.(*ast.ExprStmt); ok {
			use(e.X)
		} else {
			ast.Inspect(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.FuncLit:
					return false
				case *ast.Ident:
					if v, ok := info.Uses[m].(*types.Var); ok && isErrorType(v.Type()) && isLocal(v) {
						events = append(events, errEvent{v: v, pos: m.Pos()})
					}
				}
				return true
			})
		}
	case ast.Expr:
		use(n)
	}
	return events
}

// isErrorType reports whether t is exactly the built-in error type.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
