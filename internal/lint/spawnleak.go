package lint

import (
	"go/ast"
	"go/types"

	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/callgraph"
	"locwatch/internal/lint/summary"
)

// SpawnLeak checks the worker-pool lifecycle contract: a goroutine
// launched on behalf of a type that owns a Close-like method (Close,
// Shutdown, or their unexported spellings) must be provably drained on
// the close path, or the "drains in-flight work" promise the runtime
// lifecycle tests sample becomes a leak the sampler misses. The
// experiments.Lab pool is the motivating shape: workers range over a
// task channel and Done a WaitGroup; close() closes the channel and
// Waits — that handshake is exactly what the analyzer looks for.
//
// For every goroutine spawned from a method of such a type (or from a
// constructor returning it), the analyzer extracts the join tokens the
// goroutine participates in — WaitGroups it Dones, channels it ranges
// over or closes — and requires a matching drain somewhere reachable
// from the type's close methods (via the whole-program call graph) or
// locally in the spawning function itself (a spawn-and-Wait fan-out
// joins before returning and owes the close path nothing):
//
//	goroutine does wg.Done()   ⇔ close path does wg.Wait()
//	goroutine ranges/recvs ch  ⇔ close path does close(ch)
//	goroutine closes ch        ⇔ close path receives from ch
//
// A goroutine with no join tokens at all is reported outright: nothing
// ties its lifetime to the owner. Matching is by variable identity
// (the same struct field seen from worker and Close), so renamed
// receivers don't confuse it. Goroutines on types without a Close-like
// method are out of scope — package-level fan-out that joins locally
// (the market campaign pattern) is the local-join case, not a finding.
// Requires a whole-program Pass.Program; without one the analyzer is a
// no-op.
var SpawnLeak = &analysis.Analyzer{
	Name: "spawnleak",
	Doc: "flags goroutines launched from types with a Close/Shutdown method that are not " +
		"provably drained (WaitGroup Wait, channel close/receive) on the close path",
	Run: runSpawnLeak,
}

// closerNames are the lifecycle-method names that put a type in scope.
var closerNames = map[string]bool{
	"Close": true, "close": true,
	"Shutdown": true, "shutdown": true,
}

func runSpawnLeak(pass *analysis.Pass) error {
	prog := program(pass)
	if prog == nil {
		return nil
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		checkLifecycleType(pass, prog, named)
	}
	return nil
}

func checkLifecycleType(pass *analysis.Pass, prog *Program, named *types.Named) {
	var closers []*callgraph.Node
	var closerLabel string
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if !closerNames[m.Name()] {
			continue
		}
		if n := prog.Graph.Node(m); n != nil {
			closers = append(closers, n)
			if closerLabel == "" {
				closerLabel = n.Name()
			}
		}
	}
	if len(closers) == 0 {
		return
	}

	// Every drain operation reachable from the close path.
	var drains summary.Tokens
	for n := range prog.Graph.Reachable(closers) {
		if f := prog.Sums.OfNode(n); f != nil {
			drains.Merge(f.Tokens)
		}
	}

	for _, n := range prog.Graph.PackageNodes(pass.Pkg) {
		if !spawnsFor(n, named) {
			continue
		}
		// The spawning function's own protocol counts too: local
		// spawn-and-join owes the close path nothing.
		siteDrains := drains
		if f := prog.Sums.OfNode(n); f != nil {
			siteDrains.Merge(f.Tokens)
		}
		ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
			g, ok := m.(*ast.GoStmt)
			if !ok {
				return true
			}
			tokens, known := spawnTokens(pass.TypesInfo, prog, g)
			if !known {
				return true // dynamic callee: no stable identity to check
			}
			if !drained(tokens, siteDrains) {
				pass.Reportf(g.Pos(),
					"goroutine launched from %s is not provably drained on %s; join it with a WaitGroup the close path Waits on, or a channel the close path closes or receives from",
					n.Name(), closerLabel)
			}
			return true
		})
	}
}

// spawnsFor reports whether node n launches goroutines on behalf of
// the named type: a method of it, or a same-package constructor
// returning it.
func spawnsFor(n *callgraph.Node, named *types.Named) bool {
	if n.Decl.Body == nil {
		return false
	}
	sig := n.Func.Type().(*types.Signature)
	if sig.Recv() != nil {
		return n.RecvName() == named.Obj().Name() && n.Func.Pkg() == named.Obj().Pkg()
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		t := results.At(i).Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if rn, ok := t.(*types.Named); ok && rn.Origin() == named.Origin() {
			return true
		}
	}
	return false
}

// spawnTokens extracts the join tokens of the spawned goroutine: the
// literal's own body for `go func(){…}()`, the callee's summary for
// `go named(…)`. known=false means the callee could not be resolved.
func spawnTokens(info *types.Info, prog *Program, g *ast.GoStmt) (summary.Tokens, bool) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return summary.ScanTokens(info, lit.Body), true
	}
	if fn := analysis.CalleeFunc(info, g.Call); fn != nil {
		if f := prog.Sums.Of(fn); f != nil {
			return f.Tokens, true
		}
	}
	return summary.Tokens{}, false
}

// drained reports whether any of the goroutine's join tokens has a
// matching drain. No tokens at all means nothing ties the goroutine's
// lifetime to the owner — not drained.
func drained(spawn, drains summary.Tokens) bool {
	for _, v := range spawn.WgDone {
		if containsTokenVar(drains.WgWait, v) {
			return true
		}
	}
	for _, v := range spawn.ChRecv {
		if containsTokenVar(drains.ChClose, v) {
			return true
		}
	}
	for _, v := range spawn.ChClose {
		if containsTokenVar(drains.ChRecv, v) {
			return true
		}
	}
	return false
}

func containsTokenVar(vs []*types.Var, v *types.Var) bool {
	for _, w := range vs {
		if w == v {
			return true
		}
	}
	return false
}
