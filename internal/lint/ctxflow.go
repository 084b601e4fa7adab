package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/callgraph"
	"locwatch/internal/lint/summary"
)

// CtxFlow checks that a function which accepts a context.Context
// actually lets cancellation through: a ctx-taking function that
// blocks — on a channel operation, a bare select, time.Sleep, or a
// WaitGroup/Cond wait — without ever consulting ctx.Done()/Err(), or
// that calls a may-blocking helper without forwarding the ctx, has
// accepted a cancellation token it cannot honor. The background
// location-harvesting loops the paper dissects are exactly this shape:
// a worker that takes a ctx for appearances but can never be stopped.
//
// Blocking facts come from the concurrency summaries: a function's own
// unguarded blocking sites, and the transitive may-block bit with its
// witness chain. Selects with a default or a ctx.Done() case are
// cancellation-aware and exempt, as is any function whose body touches
// ctx.Done/Err/Deadline anywhere (it is manifestly wired for
// cancellation, even if this analysis cannot prove every site guarded).
// Independently, storing a ctx in a struct field is flagged: a stored
// ctx outlives the call that provided it, which is how workers end up
// holding dead contexts (and is the lint the standard library itself
// documents against).
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "flags ctx-accepting functions that block without a ctx.Done() escape or call blocking " +
		"helpers without forwarding ctx, and contexts stored in struct fields",
	Run: runCtxFlow,
}

func runCtxFlow(pass *analysis.Pass) error {
	prog := program(pass)
	if prog != nil {
		for _, n := range prog.Graph.Nodes() {
			if n.Pkg.Types != pass.Pkg {
				continue
			}
			checkCtxFunc(pass, prog, n)
		}
	}

	// Ctx stored in a struct field — syntactic, graph-free.
	analysis.Preorder(pass.Files, func(m ast.Node) {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					if f := ctxField(pass.TypesInfo, sel); f != nil {
						pass.Reportf(sel.Sel.Pos(), "context stored in struct field %s; pass ctx per call instead — a stored context outlives the request it belongs to", f.Name())
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range m.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				if f, ok := pass.TypesInfo.Uses[key].(*types.Var); ok && f.IsField() && summary.IsContextType(f.Type()) {
					pass.Reportf(key.Pos(), "context stored in struct field %s; pass ctx per call instead — a stored context outlives the request it belongs to", f.Name())
				}
			}
		}
	})
	return nil
}

// ctxField resolves sel to a context-typed struct field, or nil.
func ctxField(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	f, ok := s.Obj().(*types.Var)
	if !ok || !summary.IsContextType(f.Type()) {
		return nil
	}
	return f
}

// checkCtxFunc reports the blocking sites of one ctx-accepting,
// not-cancellation-aware function.
func checkCtxFunc(pass *analysis.Pass, prog *Program, n *callgraph.Node) {
	sig := n.Func.Type().(*types.Signature)
	hasCtx := false
	for i := 0; i < sig.Params().Len(); i++ {
		if summary.IsContextType(sig.Params().At(i).Type()) {
			hasCtx = true
			break
		}
	}
	if !hasCtx {
		return
	}
	f := prog.Sums.OfNode(n)
	if f == nil || f.Conc.UsesCtxDone {
		return
	}
	for _, b := range f.Conc.Blocking {
		if b.InGo {
			continue // blocks a spawned goroutine, not this ctx's caller
		}
		pass.Reportf(b.Pos, "%s in a function that takes a ctx it never consults; cancellation cannot interrupt this", b.What)
	}
	// Calls into may-blocking helpers that forward no ctx: the helper
	// can stall forever and this function's ctx cannot reach it.
	edges := make(map[token.Pos][]*callgraph.Node)
	for _, e := range n.Out {
		edges[e.Pos] = append(edges[e.Pos], e.Callee)
	}
	for _, call := range f.Conc.Calls {
		if call.PassesCtx || call.InGo {
			continue
		}
		for _, callee := range edges[call.Pos] {
			cf := prog.Sums.OfNode(callee)
			if cf == nil || !cf.Conc.MayBlock {
				continue
			}
			d := analysis.Diagnostic{Pos: call.Pos,
				Message: "call to " + callee.Func.Name() + " may block but ctx is not forwarded; cancellation stops at this call"}
			for _, hop := range cf.Conc.BlockVia {
				d.Related = append(d.Related, analysis.RelatedPos{Pos: hop.Pos, Message: "blocks here: " + hop.Name})
			}
			pass.Report(d)
			break // one report per callsite, not per resolved callee
		}
	}
}
