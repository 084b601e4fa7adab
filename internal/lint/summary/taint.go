// Location-taint summaries: the bottom-up half of the privtaint
// analyzer (internal/lint). Per function, the engine tracks which raw
// location values — geo.LatLon, geo.BoundingBox, and any struct/slice/
// map transitively carrying one (trace.Point, poi.StayPoint, android
// fixes) — flow into escaping sinks (fmt/log output, fmt.Errorf/
// errors.New construction, json encoding, writer/file writes), and
// which flow into results.
//
// The lattice value is an origin bitset: one bit per parameter
// (receiver first) plus one "internal" bit for taint born inside the
// function (a field read off a location struct, a location literal, a
// tainted result of a callee). Summaries compose at call sites by
// substituting argument origins for parameter bits, so the fixpoint
// over the SCC condensation is the standard bottom-up taint analysis.
//
// Sanitizers are boundaries, not propagators: a call into a package
// named privlog or anonymize, or to geoidx's RegionID, returns clean
// values no matter what flows in — privlog scrubs at runtime, the
// anonymize baselines release cloaked regions by construction, and a
// region identifier is the paper's own quantized form. Derived scalar
// measures (distances, areas, counts) drop taint too: numeric
// arithmetic is treated as derivation, so only direct coordinate
// extraction (p.Lat, conversions, formatting) keeps the raw value hot.
// DESIGN.md §6 states the resulting soundness envelope.
package summary

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/callgraph"
)

// Origins is a bitset of taint origins: bits 0..62 are parameter
// indices (receiver first for methods), bit 63 is taint that
// originated inside the function body.
type Origins uint64

// OriginInternal marks taint born inside the function (location struct
// field reads, location literals, tainted callee results).
const OriginInternal Origins = 1 << 63

// maxTrackedParams bounds the per-parameter bits; parameters beyond it
// share the last bit (conservative merge, never silence).
const maxTrackedParams = 62

func ParamOrigin(i int) Origins {
	if i > maxTrackedParams {
		i = maxTrackedParams
	}
	return 1 << uint(i)
}

// Hop is one step of a witness path: a function the taint flows
// through on its way to the sink.
type Hop struct {
	Name string
	Pos  token.Pos
}

// SinkFlow is one taint flow that reaches an escaping sink. Pos is the
// site in the summarized function itself — the sink call when the sink
// is local, or the call that forwards the value into a sink-reaching
// callee. Via lists the downstream hops (callee chain) ending at the
// function containing the actual sink.
type SinkFlow struct {
	Pos  token.Pos
	Sink string // external sink name, e.g. "fmt.Printf"
	Via  []Hop
}

// PathString renders the witness path for a diagnostic, rooted at the
// reporting function's name.
func (s SinkFlow) PathString(root string) string {
	parts := []string{root}
	for _, h := range s.Via {
		parts = append(parts, h.Name)
	}
	parts = append(parts, s.Sink)
	return strings.Join(parts, " → ")
}

// LocFacts is the location-taint summary of one function.
type LocFacts struct {
	// ResultOrigins[j] is the origin set flowing into result j: which
	// parameters' raw location data the result may carry, and whether
	// taint born inside the function reaches it.
	ResultOrigins []Origins

	// ParamSinks[i] lists the sink flows fed by raw location data
	// arriving through parameter i (receiver first for methods).
	ParamSinks [][]SinkFlow

	// Findings are flows whose taint originates inside this function —
	// the privtaint analyzer reports exactly these.
	Findings []SinkFlow
}

// TrustedScrubber reports whether pkg is a sanitizer boundary: values
// returned from it are clean and values passed into it are considered
// scrubbed. Matching is by package name so analysistest stubs work.
func TrustedScrubber(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	return pkg.Name() == "privlog" || pkg.Name() == "anonymize"
}

// sanitizerFunc reports whether a call to fn launders taint even
// though fn lives outside a trusted package: geoidx's RegionID is the
// paper's own region quantization.
func sanitizerFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if TrustedScrubber(fn.Pkg()) {
		return true
	}
	return fn.Pkg().Name() == "geoidx" && fn.Name() == "RegionID"
}

// locTypes memoizes the location-bearing classification per type.
type locTypes struct {
	memo map[types.Type]bool
}

// locBearing reports whether a value of type t can carry raw location
// data by construction: geo.LatLon, geo.BoundingBox, or any pointer/
// slice/array/map/channel/struct reaching one. Strings and numbers are
// not location-bearing by type — they go hot only when taint flows
// into them (a formatted coordinate, a .Lat read).
func (lt *locTypes) locBearing(t types.Type) bool {
	if t == nil {
		return false
	}
	if v, ok := lt.memo[t]; ok {
		return v
	}
	lt.memo[t] = false // cycle guard: recursive types resolve false-first
	v := lt.classify(t)
	lt.memo[t] = v
	return v
}

func (lt *locTypes) classify(t types.Type) bool {
	switch u := t.(type) {
	case *types.Named:
		obj := u.Obj()
		if obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == "geo" &&
			(obj.Name() == "LatLon" || obj.Name() == "BoundingBox") {
			return true
		}
		return lt.locBearing(u.Underlying())
	case *types.Pointer:
		return lt.locBearing(u.Elem())
	case *types.Slice:
		return lt.locBearing(u.Elem())
	case *types.Array:
		return lt.locBearing(u.Elem())
	case *types.Chan:
		return lt.locBearing(u.Elem())
	case *types.Map:
		return lt.locBearing(u.Key()) || lt.locBearing(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if lt.locBearing(u.Field(i).Type()) {
				return true
			}
		}
		return false
	}
	return false
}

// locEval evaluates one function body to a LocFacts record, given the
// (possibly still converging) summaries of its callees.
type locEval struct {
	c    *computer
	n    *callgraph.Node
	info *types.Info
	lt   *locTypes

	params     map[*types.Var]int // receiver/parameter var → origin index
	resultVars []*types.Var       // named result vars, nil entries for unnamed
	vars       map[*types.Var]Origins
	edges      map[token.Pos][]*callgraph.Node

	out LocFacts
}

// locFlow (re)computes n's LocFacts and merges them into the stored
// summary. Returns true when the summary grew.
func (c *computer) locFlow(n *callgraph.Node) bool {
	f := c.set.facts[n]
	if TrustedScrubber(n.Func.Pkg()) || n.Decl.Body == nil {
		return false
	}
	e := &locEval{c: c, n: n, info: n.Pkg.TypesInfo, lt: c.locTypes}
	e.prepare()
	e.run()
	return mergeLocFacts(&f.Loc, e.out)
}

func (e *locEval) prepare() {
	sig := e.n.Func.Type().(*types.Signature)
	e.params = make(map[*types.Var]int)
	idx := 0
	if sig.Recv() != nil {
		if r := e.n.Decl.Recv; r != nil && len(r.List) == 1 && len(r.List[0].Names) == 1 {
			if v, ok := e.info.Defs[r.List[0].Names[0]].(*types.Var); ok {
				e.params[v] = 0
			}
		}
		idx = 1
	}
	if e.n.Decl.Type.Params != nil {
		for _, field := range e.n.Decl.Type.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if v, ok := e.info.Defs[name].(*types.Var); ok {
					e.params[v] = idx
				}
				idx++
			}
		}
	}
	nresults := sig.Results().Len()
	e.resultVars = make([]*types.Var, nresults)
	if r := e.n.Decl.Type.Results; r != nil {
		j := 0
		for _, field := range r.List {
			if len(field.Names) == 0 {
				j++
				continue
			}
			for _, name := range field.Names {
				if v, ok := e.info.Defs[name].(*types.Var); ok && j < nresults {
					e.resultVars[j] = v
				}
				j++
			}
		}
	}
	e.vars = make(map[*types.Var]Origins)
	e.edges = make(map[token.Pos][]*callgraph.Node)
	for _, edge := range e.n.Out {
		e.edges[edge.Pos] = append(e.edges[edge.Pos], edge.Callee)
	}
	e.out.ResultOrigins = make([]Origins, nresults)
	e.out.ParamSinks = make([][]SinkFlow, e.nparams())
}

func (e *locEval) nparams() int {
	sig := e.n.Func.Type().(*types.Signature)
	n := sig.Params().Len()
	if sig.Recv() != nil {
		n++
	}
	return n
}

// run is the driver: a var-taint fixpoint over assignments, then one
// collection walk for sinks and returns.
func (e *locEval) run() {
	for changed := true; changed; {
		changed = e.assignPass()
	}
	e.collectPass()
}

// assignPass folds one round of assignments into the var-taint map.
func (e *locEval) assignPass() bool {
	changed := false
	taintVar := func(v *types.Var, o Origins) {
		if v == nil || o == 0 {
			return
		}
		if e.vars[v]|o != e.vars[v] {
			e.vars[v] |= o
			changed = true
		}
	}
	taintLHS := func(lhs ast.Expr, o Origins) {
		// Writing a tainted value through a field/index taints the
		// container variable (coarse); writing to a plain ident taints
		// the variable itself.
		taintVar(rootVar(e.info, lhs), o)
	}
	ast.Inspect(e.n.Decl.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			if len(m.Lhs) > 1 && len(m.Rhs) == 1 {
				if call, ok := ast.Unparen(m.Rhs[0]).(*ast.CallExpr); ok {
					for i, lhs := range m.Lhs {
						taintLHS(lhs, e.callResultOrigins(call, i))
					}
					return true
				}
				// Multi-value from map/type-assert/range forms.
				o := e.exprOrigins(m.Rhs[0])
				taintLHS(m.Lhs[0], o)
				return true
			}
			for i, lhs := range m.Lhs {
				if i < len(m.Rhs) {
					taintLHS(lhs, e.exprOrigins(m.Rhs[i]))
				}
			}
		case *ast.ValueSpec:
			if len(m.Names) > 1 && len(m.Values) == 1 {
				if call, ok := ast.Unparen(m.Values[0]).(*ast.CallExpr); ok {
					for i, name := range m.Names {
						if v, ok := e.info.Defs[name].(*types.Var); ok {
							taintVar(v, e.callResultOrigins(call, i))
						}
					}
					return true
				}
			}
			for i, name := range m.Names {
				if i < len(m.Values) {
					if v, ok := e.info.Defs[name].(*types.Var); ok {
						taintVar(v, e.exprOrigins(m.Values[i]))
					}
				}
			}
		case *ast.RangeStmt:
			o := e.exprOrigins(m.X)
			if o != 0 {
				t := e.info.TypeOf(m.X)
				if m.Value != nil && e.elemCarries(t) {
					taintLHS(m.Value, o)
				}
				if m.Key != nil && e.keyCarries(t) {
					taintLHS(m.Key, o)
				}
			}
		case *ast.CallExpr:
			// String-builder writes are assignments into the builder,
			// not sinks: Fprintf(&b, …) and b.WriteString(…) taint b.
			if w, args := e.builderWrite(m); w != nil {
				o := Origins(0)
				for _, a := range args {
					o |= e.exprOrigins(a)
				}
				taintVar(rootVar(e.info, w), o)
			}
			// copy(dst, src) is an assignment into dst.
			if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok && id.Name == "copy" &&
				len(m.Args) == 2 && e.info.Types[m.Fun].IsBuiltin() {
				taintLHS(m.Args[0], e.exprOrigins(m.Args[1]))
			}
		}
		return true
	})
	return changed
}

// elemCarries reports whether ranging over t yields location-carrying
// element values.
func (e *locEval) elemCarries(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return e.lt.locBearing(u.Elem())
	case *types.Array:
		return e.lt.locBearing(u.Elem())
	case *types.Map:
		return e.lt.locBearing(u.Elem())
	case *types.Chan:
		return e.lt.locBearing(u.Elem())
	}
	return false
}

func (e *locEval) keyCarries(t types.Type) bool {
	if u, ok := t.Underlying().(*types.Map); ok {
		return e.lt.locBearing(u.Key())
	}
	return false
}

// collectPass records sink flows and result origins.
func (e *locEval) collectPass() {
	ast.Inspect(e.n.Decl.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			e.collectCall(m)
		case *ast.ReturnStmt:
			if len(m.Results) == 0 {
				for j, v := range e.resultVars {
					if v != nil {
						e.out.ResultOrigins[j] |= e.vars[v]
					}
				}
				return true
			}
			if len(m.Results) == 1 && len(e.out.ResultOrigins) > 1 {
				if call, ok := ast.Unparen(m.Results[0]).(*ast.CallExpr); ok {
					for j := range e.out.ResultOrigins {
						e.out.ResultOrigins[j] |= e.callResultOrigins(call, j)
					}
					return true
				}
			}
			for j, res := range m.Results {
				if j < len(e.out.ResultOrigins) {
					e.out.ResultOrigins[j] |= e.exprOrigins(res)
				}
			}
		}
		return true
	})
	// Named results assigned but never explicitly returned still flow.
	for j, v := range e.resultVars {
		if v != nil {
			e.out.ResultOrigins[j] |= e.vars[v]
		}
	}
}

// collectCall classifies one call as sink, sink-reaching callee, or
// neither, and records the flows.
func (e *locEval) collectCall(call *ast.CallExpr) {
	if name, args, ok := e.externalSink(call); ok {
		for _, a := range args {
			e.recordFlow(e.exprOrigins(a), SinkFlow{Pos: call.Pos(), Sink: name})
		}
		return
	}
	// In-module callees: forward taint into their recorded param sinks.
	for _, callee := range e.calleeNodes(call) {
		cf := e.c.set.facts[callee]
		if cf == nil {
			continue
		}
		argOrigins, _ := e.argOriginsFor(call, callee)
		for p, o := range argOrigins {
			if o == 0 || p >= len(cf.Loc.ParamSinks) {
				continue
			}
			for _, sf := range cf.Loc.ParamSinks[p] {
				flow := SinkFlow{
					Pos:  call.Pos(),
					Sink: sf.Sink,
					Via:  append([]Hop{{Name: callee.Name(), Pos: sf.Pos}}, sf.Via...),
				}
				e.recordFlow(o, flow)
			}
		}
	}
}

// recordFlow files one flow under its origins: internal taint becomes
// a finding, parameter taint extends the function's own summary.
func (e *locEval) recordFlow(o Origins, flow SinkFlow) {
	if o == 0 {
		return
	}
	if o&OriginInternal != 0 {
		e.out.Findings = addFlow(e.out.Findings, flow)
	}
	for p := 0; p < len(e.out.ParamSinks); p++ {
		if o&ParamOrigin(p) != 0 {
			e.out.ParamSinks[p] = addFlow(e.out.ParamSinks[p], flow)
		}
	}
}

// addFlow appends flow unless an equivalent (same site, same sink) is
// already recorded — the dedup that keeps recursive SCCs from growing
// witness paths forever.
func addFlow(flows []SinkFlow, flow SinkFlow) []SinkFlow {
	for _, f := range flows {
		if f.Pos == flow.Pos && f.Sink == flow.Sink {
			return flows
		}
	}
	return append(flows, flow)
}

// calleeNodes resolves the in-module callees of a call: the static
// target when there is one, else every call-graph edge recorded at the
// call site (CHA interface dispatch, address-taken func-value fan-out).
func (e *locEval) calleeNodes(call *ast.CallExpr) []*callgraph.Node {
	if fn := analysis.CalleeFunc(e.info, call); fn != nil {
		if sanitizerFunc(fn) {
			return nil
		}
		if n := e.c.set.Graph.Node(fn); n != nil {
			return []*callgraph.Node{n}
		}
		if !abstractMethod(fn) {
			return nil
		}
		// Interface dispatch: fall through to the CHA edges recorded
		// at this call site.
	}
	return e.edges[call.Pos()]
}

// abstractMethod reports whether fn is an interface method (it has no
// body or node of its own; calls resolve through CHA edges).
func abstractMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}

// argOriginsFor maps the call's arguments onto callee's parameter
// indexing (receiver first, variadic folded onto the last parameter).
func (e *locEval) argOriginsFor(call *ast.CallExpr, callee *callgraph.Node) ([]Origins, int) {
	sig := callee.Func.Type().(*types.Signature)
	nparams := sig.Params().Len()
	offset := 0
	if sig.Recv() != nil {
		offset = 1
	}
	out := make([]Origins, nparams+offset)
	if offset == 1 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			out[0] |= e.exprOrigins(sel.X)
		}
	}
	for i, arg := range call.Args {
		p := i + offset
		if p >= len(out) {
			p = len(out) - 1 // variadic tail
		}
		if p >= 0 {
			out[p] |= e.exprOrigins(arg)
		}
	}
	return out, offset
}

// resolveSummary substitutes argument origins into a callee's result
// origin set.
func resolveSummary(resultOrigins Origins, argOrigins []Origins) Origins {
	out := resultOrigins & OriginInternal
	for p, o := range argOrigins {
		if resultOrigins&ParamOrigin(p) != 0 {
			out |= o
		}
	}
	return out
}

// callResultOrigins computes the origins of result j of a call.
func (e *locEval) callResultOrigins(call *ast.CallExpr, j int) Origins {
	tv := e.info.Types[ast.Unparen(call.Fun)]
	if tv.IsType() { // conversion: string(b), geo.LatLon(v)
		if len(call.Args) == 1 {
			return e.exprOrigins(call.Args[0])
		}
		return 0
	}
	if tv.IsBuiltin() {
		return e.builtinOrigins(call)
	}
	var iface *types.Func
	if fn := analysis.CalleeFunc(e.info, call); fn != nil {
		if sanitizerFunc(fn) {
			return 0
		}
		if n := e.c.set.Graph.Node(fn); n != nil {
			return e.summaryResult(call, n, j)
		}
		if !abstractMethod(fn) {
			return e.externalResultOrigins(call, fn, j)
		}
		iface = fn // interface dispatch: prefer the CHA edges below
	}
	if targets := e.edges[call.Pos()]; len(targets) > 0 {
		var o Origins
		for _, t := range targets {
			o |= e.summaryResult(call, t, j)
		}
		return o
	}
	if iface != nil {
		// No in-module implementation: treat like an external call.
		return e.externalResultOrigins(call, iface, j)
	}
	// Unknown function value: propagate the union of the arguments.
	return e.unionArgs(call)
}

func (e *locEval) summaryResult(call *ast.CallExpr, callee *callgraph.Node, j int) Origins {
	cf := e.c.set.facts[callee]
	if cf == nil || j >= len(cf.Loc.ResultOrigins) {
		return 0
	}
	argOrigins, _ := e.argOriginsFor(call, callee)
	return resolveSummary(cf.Loc.ResultOrigins[j], argOrigins)
}

// externalResultOrigins handles calls into packages outside the
// analyzed set: formatting and marshalling propagate (fmt.Sprintf,
// json.Marshal, strconv), aggregation does not (bool results are
// always clean; everything else unions the inputs, and the arithmetic
// rule in exprOrigins already keeps derived scalars cold).
func (e *locEval) externalResultOrigins(call *ast.CallExpr, fn *types.Func, j int) Origins {
	sig := fn.Type().(*types.Signature)
	if j < sig.Results().Len() {
		if b, ok := sig.Results().At(j).Type().Underlying().(*types.Basic); ok && b.Info()&types.IsBoolean != 0 {
			return 0
		}
	}
	return e.unionArgs(call)
}

func (e *locEval) unionArgs(call *ast.CallExpr) Origins {
	var o Origins
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		o |= e.exprOrigins(sel.X)
	}
	for _, a := range call.Args {
		o |= e.exprOrigins(a)
	}
	return o
}

func (e *locEval) builtinOrigins(call *ast.CallExpr) Origins {
	name := ""
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		name = id.Name
	}
	switch name {
	case "append":
		var o Origins
		for _, a := range call.Args {
			o |= e.exprOrigins(a)
		}
		return o
	case "len", "cap", "make", "new", "delete", "clear", "min", "max", "complex", "real", "imag", "recover", "panic", "print", "println", "copy":
		return 0
	}
	return 0
}

// exprOrigins computes the origin set of one expression.
func (e *locEval) exprOrigins(expr ast.Expr) Origins {
	switch x := expr.(type) {
	case *ast.ParenExpr:
		return e.exprOrigins(x.X)
	case *ast.Ident:
		return e.identOrigins(x)
	case *ast.SelectorExpr:
		return e.selectorOrigins(x)
	case *ast.CallExpr:
		return e.callResultOrigins(x, 0)
	case *ast.UnaryExpr:
		return e.exprOrigins(x.X)
	case *ast.StarExpr:
		return e.exprOrigins(x.X)
	case *ast.IndexExpr:
		base := e.exprOrigins(x.X)
		if base == 0 {
			return 0
		}
		if e.lt.locBearing(e.info.TypeOf(x)) {
			return base
		}
		return 0
	case *ast.SliceExpr:
		return e.exprOrigins(x.X)
	case *ast.TypeAssertExpr:
		return e.exprOrigins(x.X)
	case *ast.BinaryExpr:
		// Arithmetic is derivation (distances, areas — cold); string
		// concatenation carries formatted coordinates.
		if t, ok := e.info.TypeOf(x).Underlying().(*types.Basic); ok && t.Info()&types.IsString != 0 {
			return e.exprOrigins(x.X) | e.exprOrigins(x.Y)
		}
		return 0
	case *ast.CompositeLit:
		var o Origins
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				o |= e.exprOrigins(kv.Value)
				continue
			}
			o |= e.exprOrigins(elt)
		}
		// A location literal is itself a coordinate, even with
		// constant fields: an anchor in a log line is still a place.
		if o == 0 && e.isLatLonType(e.info.TypeOf(x)) {
			o = OriginInternal
		}
		return o
	case *ast.FuncLit:
		return 0
	}
	return 0
}

func (e *locEval) isLatLonType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == "geo" && obj.Name() == "LatLon"
}

func (e *locEval) identOrigins(id *ast.Ident) Origins {
	v, _ := e.info.Uses[id].(*types.Var)
	if v == nil {
		v, _ = e.info.Defs[id].(*types.Var)
	}
	if v == nil {
		return 0
	}
	if p, ok := e.params[v]; ok {
		return ParamOrigin(p)
	}
	if o, ok := e.vars[v]; ok {
		return o
	}
	// Package-scope location state is an internal source.
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() && e.lt.locBearing(v.Type()) {
		return OriginInternal
	}
	return 0
}

func (e *locEval) selectorOrigins(sel *ast.SelectorExpr) Origins {
	if e.info.Selections[sel] == nil {
		// Qualified identifier (pkg.Var) or method expression.
		return e.identOrigins(sel.Sel)
	}
	s := e.info.Selections[sel]
	if s.Kind() != types.FieldVal {
		return 0 // method values are handled at their call site
	}
	base := e.exprOrigins(sel.X)
	if base == 0 {
		return 0
	}
	// Field sensitivity: only location-bearing fields keep the taint —
	// fix.T and stay.NPoints are cold, fix.Pos is hot, and the raw
	// .Lat/.Lon components of a LatLon are the hottest of all.
	if e.lt.locBearing(s.Obj().Type()) {
		return base
	}
	if e.isLatLonType(e.info.TypeOf(sel.X)) || e.isLatLonType(deref(e.info.TypeOf(sel.X))) {
		return base // p.Lat, p.Lon: raw coordinate components
	}
	return 0
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// externalSink classifies a call as an escaping sink outside the
// analyzed packages. Returns the sink's display name and the argument
// expressions whose taint escapes through it.
func (e *locEval) externalSink(call *ast.CallExpr) (string, []ast.Expr, bool) {
	fn := analysis.CalleeFunc(e.info, call)
	if fn == nil || fn.Pkg() == nil {
		// Interface methods lose their package only when unresolved;
		// writer-shaped methods still count.
		return e.writerSink(call)
	}
	if e.c.set.Graph.Node(fn) != nil || sanitizerFunc(fn) {
		return "", nil, false // in-module (summarized) or sanitizer
	}
	switch fn.Pkg().Path() {
	case "fmt":
		switch fn.Name() {
		case "Print", "Println", "Printf":
			return "fmt." + fn.Name(), call.Args, true
		case "Errorf":
			return "fmt.Errorf", call.Args, true
		case "Fprint", "Fprintln", "Fprintf":
			if len(call.Args) > 0 && e.isBuilder(e.info.TypeOf(call.Args[0])) {
				return "", nil, false // string building, handled as assignment
			}
			return "fmt." + fn.Name(), call.Args, true
		}
		return "", nil, false
	case "log":
		return "log." + fn.Name(), call.Args, true
	case "log/slog":
		return "slog." + fn.Name(), call.Args, true
	case "errors":
		if fn.Name() == "New" {
			return "errors.New", call.Args, true
		}
		return "", nil, false
	case "encoding/json":
		if fn.Name() == "Encode" {
			return "json.Encode", call.Args, true
		}
		return "", nil, false // Marshal propagates; the write is the sink
	case "os":
		if fn.Name() == "WriteFile" {
			return "os.WriteFile", call.Args, true
		}
	case "io":
		if fn.Name() == "WriteString" {
			if len(call.Args) > 0 && e.isBuilder(e.info.TypeOf(call.Args[0])) {
				return "", nil, false
			}
			return "io.WriteString", call.Args, true
		}
	}
	return e.writerSink(call)
}

// writerSink treats Write/WriteString methods on anything that is not
// an in-memory builder as an escaping sink — files, sockets,
// http.ResponseWriter, unknown io.Writers behind interfaces.
func (e *locEval) writerSink(call *ast.CallExpr) (string, []ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil, false
	}
	name := sel.Sel.Name
	if name != "Write" && name != "WriteString" {
		return "", nil, false
	}
	fn, _ := e.info.Uses[sel.Sel].(*types.Func)
	if fn == nil || e.c.set.Graph.Node(fn) != nil {
		return "", nil, false // in-module methods go through summaries
	}
	if e.isBuilder(e.info.TypeOf(sel.X)) {
		return "", nil, false
	}
	recv := "io.Writer"
	if t := e.info.TypeOf(sel.X); t != nil {
		recv = types.TypeString(deref(t), func(p *types.Package) string { return p.Name() })
	}
	return recv + "." + name, call.Args, true
}

// isBuilder reports whether t is an in-memory string builder
// (*bytes.Buffer, *strings.Builder): writes into one are string
// construction, not escapes — the taint rides the builder variable.
func (e *locEval) isBuilder(t types.Type) bool {
	t = deref(t)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "bytes.Buffer", "strings.Builder":
		return true
	}
	return false
}

// builderWrite recognizes writes into in-memory builders and returns
// the builder expression plus the written arguments, so assignPass can
// taint the builder variable.
func (e *locEval) builderWrite(call *ast.CallExpr) (ast.Expr, []ast.Expr) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			if e.isBuilder(e.info.TypeOf(sel.X)) {
				return sel.X, call.Args
			}
		}
	}
	// fmt.Fprint*(builder, …) and io.WriteString(builder, …).
	fn := analysis.CalleeFunc(e.info, call)
	if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
		return nil, nil
	}
	path := fn.Pkg().Path()
	if (path == "fmt" && strings.HasPrefix(fn.Name(), "Fprint")) ||
		(path == "io" && fn.Name() == "WriteString") {
		if e.isBuilder(e.info.TypeOf(call.Args[0])) {
			return unaddr(call.Args[0]), call.Args[1:]
		}
	}
	return nil, nil
}

// unaddr peels an address-of so Fprintf(&b, …) taints b itself.
func unaddr(x ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(x).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return u.X
	}
	return x
}

// mergeLocFacts unions fresh into dst, reporting growth.
func mergeLocFacts(dst *LocFacts, fresh LocFacts) bool {
	changed := false
	if len(dst.ResultOrigins) < len(fresh.ResultOrigins) {
		dst.ResultOrigins = append(dst.ResultOrigins, make([]Origins, len(fresh.ResultOrigins)-len(dst.ResultOrigins))...)
	}
	for j, o := range fresh.ResultOrigins {
		if dst.ResultOrigins[j]|o != dst.ResultOrigins[j] {
			dst.ResultOrigins[j] |= o
			changed = true
		}
	}
	if len(dst.ParamSinks) < len(fresh.ParamSinks) {
		dst.ParamSinks = append(dst.ParamSinks, make([][]SinkFlow, len(fresh.ParamSinks)-len(dst.ParamSinks))...)
	}
	for p, flows := range fresh.ParamSinks {
		for _, f := range flows {
			if n := addFlow(dst.ParamSinks[p], f); len(n) != len(dst.ParamSinks[p]) {
				dst.ParamSinks[p] = n
				changed = true
			}
		}
	}
	for _, f := range fresh.Findings {
		if n := addFlow(dst.Findings, f); len(n) != len(dst.Findings) {
			dst.Findings = n
			changed = true
		}
	}
	return changed
}
