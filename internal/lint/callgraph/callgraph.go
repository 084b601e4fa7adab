// Package callgraph builds a whole-program, type-based call graph over
// the packages the lint loader produced — the interprocedural substrate
// under the nilfacade and privtaint analyzers, playing the role
// golang.org/x/tools/go/callgraph/cha plays for real nilness and taint
// checkers.
//
// The graph has one node per declared function or method. Code inside
// function literals (closures, deferred literals, `go func(){…}()`
// bodies) is attributed to the enclosing declaration: creating a
// closure is treated as (eventually) running it, which over-approximates
// but keeps every statement the pipeline can execute inside some node.
//
// Edge resolution is class-hierarchy analysis: a static call resolves
// to its single callee; a call through an interface method resolves to
// that method on every named type in the program whose method set
// implements the interface. References to a function outside call
// position (method values, funcs passed as arguments) add conservative
// dynamic edges, so `runtime.SetFinalizer(l, (*Lab).Close)` keeps Close
// reachable. A call through a plain function-typed value (`var f
// func(); f()`, a func parameter, a stored callback) fans out to every
// address-taken declared function whose signature matches the call —
// the classic address-taken approximation, so `privtaint` and
// `nilfacade` do not lose the trail when a callback crosses a function
// boundary. Package initialization (func values created in
// package-level var declarations) remains unmodeled; see DESIGN.md §6
// for the soundness caveats.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"locwatch/internal/lint/loader"
)

// Node is one declared function or method.
type Node struct {
	Func *types.Func
	Pkg  *loader.Package
	Decl *ast.FuncDecl

	// Out are the call edges, in deterministic order (source order,
	// dynamic targets sorted by name).
	Out []*Edge
}

// Name returns the fully qualified name, e.g.
// "locwatch/internal/mobility.(*World).Trace".
func (n *Node) Name() string { return n.Func.FullName() }

// Edge is one resolved call (or function reference).
type Edge struct {
	Callee *Node
	// Pos is the call or reference position in the caller.
	Pos token.Pos
	// Dynamic marks edges resolved by method-set analysis (interface
	// dispatch) or added for out-of-call-position references.
	Dynamic bool
}

// Graph is the whole-program call graph.
type Graph struct {
	// Packages is the analyzed package set, sorted by import path.
	Packages []*loader.Package

	nodes   map[*types.Func]*Node
	order   []*Node // stable: package order, then file/source order
	byPkg   map[*types.Package][]*Node
	named   []*types.Named // CHA universe: named non-interface types
	chaMemo map[*types.Func][]*Node
	sccs    [][]*Node

	// addrTaken indexes the address-taken declared functions by their
	// value signature (receiver stripped), the fan-out universe for
	// calls through plain function-typed values.
	addrTaken map[string][]*Node
}

// Build constructs the graph over the given packages. The set should
// be import-closed over the module (dependencies included); calls into
// packages outside the set get no edge.
func Build(pkgs []*loader.Package) *Graph {
	pkgs = append([]*loader.Package(nil), pkgs...)
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	g := &Graph{
		Packages:  pkgs,
		nodes:     make(map[*types.Func]*Node),
		byPkg:     make(map[*types.Package][]*Node),
		chaMemo:   make(map[*types.Func][]*Node),
		addrTaken: make(map[string][]*Node),
	}
	for _, pkg := range pkgs {
		g.indexPackage(pkg)
	}
	// References first: the address-taken universe must be complete
	// before any call through a function-typed value is resolved.
	for _, n := range g.order {
		g.collectRefs(n)
	}
	for targets := range g.addrTaken {
		sort.Slice(g.addrTaken[targets], func(i, j int) bool {
			return g.addrTaken[targets][i].Name() < g.addrTaken[targets][j].Name()
		})
	}
	for _, n := range g.order {
		g.resolveCalls(n)
	}
	return g
}

// Nodes returns every node in stable order.
func (g *Graph) Nodes() []*Node { return g.order }

// Node returns the node for fn (normalized through Origin for generic
// instantiations), or nil if fn is not declared in the analyzed set.
func (g *Graph) Node(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// PackageNodes returns the nodes declared in the given package.
func (g *Graph) PackageNodes(pkg *types.Package) []*Node { return g.byPkg[pkg] }

// indexPackage creates nodes for every function declaration and
// collects named types for the CHA universe.
func (g *Graph) indexPackage(pkg *loader.Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{Func: obj, Pkg: pkg, Decl: fd}
			g.nodes[obj] = n
			g.order = append(g.order, n)
			g.byPkg[pkg.Types] = append(g.byPkg[pkg.Types], n)
		}
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		g.named = append(g.named, named)
	}
}

// collectRefs walks n's body and adds a dynamic edge for every
// *types.Func used outside call position (method value, function
// passed as argument): the value may run later, so reachability must
// keep it. Referenced in-module functions also join the address-taken
// universe that resolveCalls fans function-value calls out to.
func (g *Graph) collectRefs(n *Node) {
	if n.Decl.Body == nil {
		return
	}
	info := n.Pkg.TypesInfo
	// callFuns collects the identifiers that appear as the resolved
	// selector/ident of a call's Fun, so the reference pass below can
	// skip them.
	callFuns := make(map[*ast.Ident]bool)
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id := calleeIdent(call); id != nil {
			callFuns[id] = true
		}
		return true
	})
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok || callFuns[id] {
			return true
		}
		fn, _ := info.Uses[id].(*types.Func)
		if fn == nil {
			return true
		}
		if callee := g.Node(fn); callee != nil {
			g.addEdge(n, callee, id.Pos(), true)
			g.takeAddress(callee)
		}
		return true
	})
}

// resolveCalls walks n's body — including nested function literals —
// and adds edges for every call: static, CHA interface dispatch, or
// the address-taken fan-out for calls through function-typed values.
func (g *Graph) resolveCalls(n *Node) {
	if n.Decl.Body == nil {
		return
	}
	info := n.Pkg.TypesInfo
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id := calleeIdent(call); id != nil {
			if fn, _ := info.Uses[id].(*types.Func); fn != nil {
				g.addCall(n, fn, call.Pos())
				return true
			}
		}
		// Not a named function or method: a call through a function-
		// typed value (`f()`, `s.cb()`, `fs[i]()`, `get()()`). Skip
		// conversions and builtins, then fan out to every address-
		// taken function matching the call's signature.
		tv := info.Types[ast.Unparen(call.Fun)]
		if tv.IsType() || tv.IsBuiltin() {
			return true
		}
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			return true
		}
		for _, callee := range g.addrTaken[valueSigKey(sig)] {
			g.addEdge(n, callee, call.Pos(), true)
		}
		return true
	})
}

// calleeIdent returns the identifier a call's Fun resolves through
// (the ident itself or a selector's Sel), or nil for calls of computed
// function values.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// takeAddress records callee in the address-taken universe under its
// value signature (receiver stripped: a method value's type has none).
func (g *Graph) takeAddress(callee *Node) {
	key := valueSigKey(callee.Func.Type().(*types.Signature))
	for _, existing := range g.addrTaken[key] {
		if existing == callee {
			return
		}
	}
	g.addrTaken[key] = append(g.addrTaken[key], callee)
}

// valueSigKey renders a signature as a comparison key: receiver
// stripped (a method value's type has none) and parameters anonymized
// (TypeString would otherwise keep declared names, and `func(n int)`
// must match a call through a `func(int)` variable).
func valueSigKey(sig *types.Signature) string {
	return types.TypeString(types.NewSignatureType(nil, nil, nil,
		anonTuple(sig.Params()), anonTuple(sig.Results()), sig.Variadic()), nil)
}

func anonTuple(t *types.Tuple) *types.Tuple {
	vars := make([]*types.Var, t.Len())
	for i := range vars {
		vars[i] = types.NewVar(token.NoPos, nil, "", t.At(i).Type())
	}
	return types.NewTuple(vars...)
}

// addCall resolves one called *types.Func: interface methods fan out
// via CHA, a function with a node gets a static edge, and a function
// outside the analyzed packages gets none.
func (g *Graph) addCall(n *Node, fn *types.Func, pos token.Pos) {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		for _, callee := range g.chaTargets(fn) {
			g.addEdge(n, callee, pos, true)
		}
		return
	}
	if callee := g.Node(fn); callee != nil {
		g.addEdge(n, callee, pos, false)
	}
}

func (g *Graph) addEdge(from, to *Node, pos token.Pos, dynamic bool) {
	e := &Edge{Callee: to, Pos: pos, Dynamic: dynamic}
	from.Out = append(from.Out, e)
}

// chaTargets resolves an interface method to the matching concrete
// method on every named type whose method set implements the
// interface. Memoized per abstract method.
func (g *Graph) chaTargets(m *types.Func) []*Node {
	if targets, ok := g.chaMemo[m]; ok {
		return targets
	}
	var targets []*Node
	iface, _ := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if iface != nil && iface.NumMethods() > 0 {
		seen := make(map[*Node]bool)
		for _, named := range g.named {
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				obj, ok := ms.At(i).Obj().(*types.Func)
				if !ok || obj.Name() != m.Name() {
					continue
				}
				if !ast.IsExported(m.Name()) && obj.Pkg() != m.Pkg() {
					continue
				}
				if callee := g.Node(obj); callee != nil && !seen[callee] {
					seen[callee] = true
					targets = append(targets, callee)
				}
			}
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i].Name() < targets[j].Name() })
	}
	g.chaMemo[m] = targets
	return targets
}

// SCCs returns the strongly connected components of the graph in
// bottom-up (callee-first) order: every SCC appears after all SCCs it
// calls into, which is exactly the order a function-summary fixpoint
// wants. Memoized.
func (g *Graph) SCCs() [][]*Node {
	if g.sccs != nil {
		return g.sccs
	}
	// Tarjan; components pop in reverse topological order of the
	// condensation, i.e. sinks (pure callees) first.
	index := make(map[*Node]int, len(g.order))
	low := make(map[*Node]int, len(g.order))
	onStack := make(map[*Node]bool)
	var stack []*Node
	next := 0
	var out [][]*Node

	var strongconnect func(n *Node)
	strongconnect = func(n *Node) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, e := range n.Out {
			w := e.Callee
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[n] {
					low[n] = low[w]
				}
			} else if onStack[w] && index[w] < low[n] {
				low[n] = index[w]
			}
		}
		if low[n] == index[n] {
			var scc []*Node
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == n {
					break
				}
			}
			out = append(out, scc)
		}
	}
	for _, n := range g.order {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	g.sccs = out
	return out
}
