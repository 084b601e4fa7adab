// Concurrency summaries: the third per-SCC fixpoint, computing per
// function the facts the concurrency and deadlock analyzers consume.
//
// The heart is an intraprocedural lockset dataflow over the
// internal/lint/cfg basic blocks. The lattice value per program point
// is a triple:
//
//	must-held — mutex variables locked on every path here (∩ at joins)
//	may-held  — mutex variables locked on some path here (∪ at joins)
//	may-closed — channel fields possibly already closed here (∪, no kill)
//
// Mutexes and channels are resolved to variables the way spawnleak's
// drain tokens are (tokenVar): plain identifiers and selector fields,
// so `p.mu` seen from two methods is one lock. There is no alias
// analysis: a mutex reached through a reassigned pointer is a different
// variable, and DESIGN §6 states that limit.
//
// On top of the dataflow the scan records struct-field reads/writes
// with the lockset in force, channel-field sends/closes, calls with
// the lockset at the callsite, blocking operations (channel ops,
// time.Sleep, WaitGroup/Cond Wait, selects with neither a default nor
// a ctx.Done() case), and the parameters that escape into spawned
// goroutines or channel sends. Function literals are analyzed as their
// own contexts with an empty entry lockset — a goroutine body does not
// inherit the spawner's locks — and accesses inside `go func(){…}`
// literals are marked goroutine-side. The per-SCC fixpoint then folds
// callee facts bottom-up: transitive send/close field sets, may-block
// with a witness chain, escape bits through argument→parameter
// substitution, and send/close-after-close issues that only appear
// when a call is one hop away from the close.
package summary

import (
	"go/ast"
	"go/token"
	"go/types"

	"locwatch/internal/lint/analysis"
	"locwatch/internal/lint/callgraph"
	"locwatch/internal/lint/cfg"
)

// FieldAccess is one read or write of a struct field, with the lockset
// in force at the access.
type FieldAccess struct {
	Field *types.Var
	Pos   token.Pos
	Write bool
	// InGo marks accesses lexically inside a `go func(){…}` literal;
	// GoPos is then the spawning statement for witness diagnostics.
	InGo  bool
	GoPos token.Pos
	// Held are the must-held locks, MayHeld the locks held on at least
	// one path (Held ⊆ MayHeld).
	Held    []*types.Var
	MayHeld []*types.Var
	// Owned marks accesses through a base object the function provably
	// owns: rooted in a local variable that is neither captured by a go
	// statement nor sent on a channel (and, inside a go literal,
	// declared by the literal itself). Owned accesses cannot race — the
	// instance is goroutine-private even though the field, being a
	// type-level identity, is also touched elsewhere.
	Owned bool
	// RootParam is the parameter slot (receiver first, the Origins
	// indexing) the access's base object roots in, or -1. Slot-
	// sensitive callers (locksafe's spawn flood) use it to ask whether
	// the instance behind this access was ever handed to a goroutine.
	RootParam int
}

// ChanOpKind classifies a channel-field operation.
type ChanOpKind int

const (
	ChanSend ChanOpKind = iota
	ChanClose
)

// ChanOp is a send or close on a channel-typed struct field.
type ChanOp struct {
	Field    *types.Var
	Pos      token.Pos
	Kind     ChanOpKind
	Deferred bool
	InGo     bool
}

// ChanIssue is a channel-ordering violation: send possibly after
// close, or double close — visible inside one function, or through one
// call into a function that (transitively) sends/closes the field.
type ChanIssue struct {
	Field *types.Var
	Pos   token.Pos
	Msg   string
	Via   []Hop
}

// ConcCall is one call with in-module callees, annotated with the
// concurrency context at the callsite.
type ConcCall struct {
	Pos token.Pos
	// Held/Closed snapshot the must-held locks and may-closed channel
	// fields at the call; ReadHeld ⊆ Held are the read-locked ones.
	Held     []*types.Var
	ReadHeld []*types.Var
	Closed   []*types.Var
	// RecvRoot is the caller parameter index the receiver expression
	// roots in (-1 if none); ArgRoots likewise per argument. Used to
	// substitute callee escape bits into the caller's.
	RecvRoot int
	ArgRoots []int
	// PassesCtx reports that some argument (or the receiver) has type
	// context.Context — cancellation is forwarded.
	PassesCtx bool
	// RecvAlias/ArgAlias report per passed value whether its type is
	// aliasable (pointer, interface, map, slice, chan, func, or a
	// struct containing one) — only aliasable values can carry shared
	// state into the callee. RecvLeak/ArgLeak report that the value
	// roots in a non-parameter variable the caller does not own
	// (published local, captured variable, package-level variable):
	// such a value is shared no matter what the caller's own sharing
	// context is.
	RecvAlias, RecvLeak bool
	ArgAlias, ArgLeak   []bool
	// InGo marks calls that run on a spawned goroutine: inside a go
	// literal, or the direct call of a `go f()` statement.
	InGo bool
}

// BlockSite is one potentially blocking operation with no cancellation
// escape (not under a select with a default or ctx.Done() case).
type BlockSite struct {
	Pos  token.Pos
	What string
	// InGo marks sites lexically inside a spawned goroutine's literal —
	// they block that goroutine, not the function's caller.
	InGo bool
	// Held/ReadHeld snapshot the must-held locks (and the read-locked
	// subset) at the site, captured during the CFG replay. A non-empty
	// Held is the blockhold analyzer's trigger.
	Held     []*types.Var
	ReadHeld []*types.Var
}

// ConcFacts is the concurrency summary of one function.
type ConcFacts struct {
	Accesses []FieldAccess
	ChanOps  []ChanOp
	Calls    []ConcCall
	Issues   []ChanIssue

	// SendFields/CloseFields are the channel fields the function may
	// send on / close, transitively through calls.
	SendFields  []*types.Var
	CloseFields []*types.Var

	// EscapeGo/EscapeChan are parameter bitsets (receiver first, the
	// Origins indexing): parameters that escape into a spawned
	// goroutine / into a channel send, transitively.
	EscapeGo   Origins
	EscapeChan Origins

	// Blocking are the function's own unguarded blocking sites,
	// goroutine-side ones marked InGo. MayBlock additionally covers
	// blocking callees reached without forwarding a context (caller's
	// goroutine only, so InGo sites are excluded); BlockVia is the
	// witness chain ending at the blocking operation.
	Blocking []BlockSite
	MayBlock bool
	BlockVia []Hop
}

// --- type classification helpers ---

// isMutex reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer). Matching is by package name so fixtures work.
func isMutex(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Name() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// isSyncOrAtomic reports whether t is a sync/sync.atomic primitive —
// those fields synchronize themselves and are excluded from the data
// race accounting.
func isSyncOrAtomic(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Name() {
	case "sync":
		switch obj.Name() {
		case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Map", "Pool", "Locker":
			return true
		}
	case "atomic":
		return true
	}
	return false
}

// isContextType reports whether t is context.Context (by package name
// so analysistest stubs work).
func isContextType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Name() == "context"
}

// recordableField reports whether v is a struct field whose accesses
// join the race accounting: sync primitives, atomics, channels and
// contexts are excluded (channel fields are the chanowner analyzer's
// domain, the rest synchronize or are flagged elsewhere).
func recordableField(v *types.Var) bool {
	if v == nil || !v.IsField() || v.Name() == "_" {
		return false
	}
	t := v.Type()
	if isSyncOrAtomic(t) || isChan(t) || isContextType(t) {
		return false
	}
	return true
}

// chanField resolves e to a channel-typed struct field, or nil.
func chanField(info *types.Info, e ast.Expr) *types.Var {
	v := tokenVar(info, e)
	if v != nil && v.IsField() && isChan(v.Type()) {
		return v
	}
	return nil
}

// paramIndexMap maps receiver and parameter variables to their origin
// index (receiver first), the Origins bit layout.
func paramIndexMap(n *callgraph.Node, info *types.Info) map[*types.Var]int {
	params := make(map[*types.Var]int)
	sig := n.Func.Type().(*types.Signature)
	idx := 0
	if sig.Recv() != nil {
		if r := n.Decl.Recv; r != nil && len(r.List) == 1 && len(r.List[0].Names) == 1 {
			if v, ok := info.Defs[r.List[0].Names[0]].(*types.Var); ok {
				params[v] = 0
			}
		}
		idx = 1
	}
	if n.Decl.Type.Params != nil {
		for _, field := range n.Decl.Type.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					params[v] = idx
				}
				idx++
			}
		}
	}
	return params
}

// --- the lockset lattice ---

// lockState is the dataflow value at one program point.
type lockState struct {
	bottom bool // unvisited: the join identity
	must   []*types.Var
	may    []*types.Var
	closed []*types.Var
	// reads ⊆ must: locks whose latest acquisition was RLock on every
	// path (∩ at joins, so a Lock-vs-RLock merge conservatively counts
	// as write-held).
	reads []*types.Var
}

func (s lockState) clone() lockState {
	return lockState{
		must:   append([]*types.Var(nil), s.must...),
		may:    append([]*types.Var(nil), s.may...),
		closed: append([]*types.Var(nil), s.closed...),
		reads:  append([]*types.Var(nil), s.reads...),
	}
}

// join folds src into dst: must intersects, may and closed union.
// Reports change.
func (dst *lockState) join(src lockState) bool {
	if dst.bottom {
		*dst = src.clone()
		return true
	}
	changed := false
	var must []*types.Var
	for _, v := range dst.must {
		if containsVar(src.must, v) {
			must = append(must, v)
		} else {
			changed = true
		}
	}
	dst.must = must
	var reads []*types.Var
	for _, v := range dst.reads {
		if containsVar(src.reads, v) {
			reads = append(reads, v)
		} else {
			changed = true
		}
	}
	dst.reads = reads
	for _, v := range src.may {
		if !containsVar(dst.may, v) {
			dst.may = append(dst.may, v)
			changed = true
		}
	}
	for _, v := range src.closed {
		if !containsVar(dst.closed, v) {
			dst.closed = append(dst.closed, v)
			changed = true
		}
	}
	return changed
}

func removeVar(vs []*types.Var, v *types.Var) []*types.Var {
	out := vs[:0]
	for _, w := range vs {
		if w != v {
			out = append(out, w)
		}
	}
	return out
}

// --- the per-function scan ---

// concCtx is one analysis context: a declared body or a function
// literal's body, each with its own CFG and an empty entry lockset.
type concCtx struct {
	body  *ast.BlockStmt
	inGo  bool
	goPos token.Pos
}

type concEval struct {
	n      *callgraph.Node
	info   *types.Info
	params map[*types.Var]int
	edges  map[token.Pos]bool // positions with in-module call edges

	// guarded marks channel-op positions inside a select that has a
	// default or a ctx.Done() case — not blocking sites.
	guarded map[token.Pos]bool

	// selectSite maps the comm-op positions of a blocking select back
	// to the select's own position (its BlockSite), so the CFG replay
	// can attach the entry lockset to the select. blockIdx indexes
	// Blocking by position once the prescan is done.
	selectSite map[token.Pos]token.Pos
	blockIdx   map[token.Pos]int

	// sharedVars are the variables published to another goroutine
	// somewhere in the function: referenced inside a go statement
	// (literal body, arguments, bound receiver) or sent on a channel.
	// A local in this set no longer confers ownership.
	sharedVars map[*types.Var]bool

	queue  []concCtx
	queued map[*ast.BlockStmt]bool
	cur    concCtx

	out ConcFacts
}

// concScan computes the direct (intraprocedural) concurrency facts of
// one function.
func (c *computer) concScan(n *callgraph.Node) ConcFacts {
	if n.Decl.Body == nil {
		return ConcFacts{}
	}
	e := &concEval{
		n:          n,
		info:       n.Pkg.TypesInfo,
		params:     paramIndexMap(n, n.Pkg.TypesInfo),
		edges:      make(map[token.Pos]bool),
		guarded:    make(map[token.Pos]bool),
		selectSite: make(map[token.Pos]token.Pos),
		queued:     make(map[*ast.BlockStmt]bool),
		sharedVars: make(map[*types.Var]bool),
	}
	for _, edge := range n.Out {
		e.edges[edge.Pos] = true
	}
	e.prescan(n.Decl.Body, false)
	e.blockIdx = make(map[token.Pos]int, len(e.out.Blocking))
	for i, b := range e.out.Blocking {
		e.blockIdx[b.Pos] = i
		if !b.InGo && !e.out.MayBlock {
			e.out.MayBlock = true
			e.out.BlockVia = []Hop{{Name: b.What, Pos: b.Pos}}
		}
	}
	e.queue = []concCtx{{body: n.Decl.Body}}
	for len(e.queue) > 0 {
		e.cur = e.queue[0]
		e.queue = e.queue[1:]
		e.runCtx()
	}
	for _, op := range e.out.ChanOps {
		switch op.Kind {
		case ChanSend:
			e.out.SendFields = appendVars(e.out.SendFields, []*types.Var{op.Field})
		case ChanClose:
			e.out.CloseFields = appendVars(e.out.CloseFields, []*types.Var{op.Field})
		}
	}
	e.deferredCloseIssues()
	return e.out
}

// prescan is one lexical pass over the whole body (literals included):
// select guarding, blocking sites, ctx.Done usage, and the escape
// bitsets — none of which need the lockset.
func (e *concEval) prescan(root ast.Node, inGo bool) {
	ast.Inspect(root, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			// Literal bodies are scanned with their own inGo flag from
			// the GoStmt case below; plain literals inherit.
			if _, seen := e.guarded[m.Body.Pos()]; !seen && root != m.Body {
				e.guarded[m.Body.Pos()] = false // marker to avoid rescans
				e.prescan(m.Body, inGo)
			}
			return false
		case *ast.GoStmt:
			e.goEscapes(m)
			if lit, ok := ast.Unparen(m.Call.Fun).(*ast.FuncLit); ok {
				e.guarded[lit.Body.Pos()] = false
				e.prescan(lit.Body, true)
				for _, arg := range m.Call.Args {
					e.prescan(arg, inGo)
				}
				return false
			}
			return true
		case *ast.SelectStmt:
			e.prescanSelect(m, inGo)
		case *ast.SendStmt:
			if v := rootVar(e.info, m.Value); v != nil {
				e.sharedVars[v] = true
				if p, ok := e.params[v]; ok {
					e.out.EscapeChan |= ParamOrigin(p)
				}
			}
			if !e.guarded[m.Pos()] {
				e.addBlocking(m.Pos(), "channel send", inGo)
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && !e.guarded[m.Pos()] && !e.isCtxDoneRecv(m.X) {
				e.addBlocking(m.Pos(), "channel receive", inGo)
			}
		case *ast.RangeStmt:
			if t := e.info.TypeOf(m.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					e.addBlocking(m.Pos(), "range over channel", inGo)
				}
			}
		case *ast.CallExpr:
			e.prescanCall(m, inGo)
		}
		return true
	})
}

// goEscapes marks the variables a go statement sends to the new
// goroutine: call arguments, the bound receiver, and — for literals —
// every captured variable. Parameters set their EscapeGo bit; every
// root joins sharedVars so locals lose their ownership claim.
func (e *concEval) goEscapes(g *ast.GoStmt) {
	mark := func(expr ast.Expr) {
		if v := rootVar(e.info, expr); v != nil {
			e.sharedVars[v] = true
			if p, ok := e.params[v]; ok {
				e.out.EscapeGo |= ParamOrigin(p)
			}
		}
	}
	for _, arg := range g.Call.Args {
		mark(arg)
	}
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.SelectorExpr:
		mark(fun.X)
	case *ast.FuncLit:
		ast.Inspect(fun.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if v, _ := e.info.Uses[id].(*types.Var); v != nil {
					e.sharedVars[v] = true
					if p, ok := e.params[v]; ok {
						e.out.EscapeGo |= ParamOrigin(p)
					}
				}
			}
			return true
		})
	default:
		mark(g.Call.Fun)
	}
}

// prescanSelect classifies one select: with a default case or a
// `<-ctx.Done()` case the communication is cancellation-aware and its
// ops are guarded; otherwise the select itself is one blocking site.
func (e *concEval) prescanSelect(sel *ast.SelectStmt, inGo bool) {
	hasComm, escapes := false, false
	var commPos []token.Pos
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			escapes = true // default case: non-blocking poll
			continue
		}
		hasComm = true
		ast.Inspect(cc.Comm, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.SendStmt:
				e.guarded[m.Pos()] = true
				commPos = append(commPos, m.Pos())
			case *ast.UnaryExpr:
				if m.Op == token.ARROW {
					e.guarded[m.Pos()] = true
					commPos = append(commPos, m.Pos())
					if e.isCtxDoneRecv(m.X) {
						escapes = true
					}
				}
			}
			return true
		})
	}
	if !escapes && (hasComm || len(sel.Body.List) == 0) {
		e.addBlocking(sel.Pos(), "select with no default or ctx.Done() case", inGo)
		for _, p := range commPos {
			e.selectSite[p] = sel.Pos()
		}
	}
}

func (e *concEval) prescanCall(call *ast.CallExpr, inGo bool) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Wait":
			if v := tokenVar(e.info, sel.X); v != nil {
				if isWaitGroup(v.Type()) {
					e.addBlocking(call.Pos(), "sync.WaitGroup.Wait", inGo)
				} else if isSyncCond(v.Type()) {
					e.addBlocking(call.Pos(), "sync.Cond.Wait", inGo)
				}
			}
		case "Sleep":
			if fn, _ := e.info.Uses[sel.Sel].(*types.Func); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Name() == "time" {
				e.addBlocking(call.Pos(), "time.Sleep", inGo)
			}
		}
	}
}

func isSyncCond(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Cond" && obj.Pkg() != nil && obj.Pkg().Name() == "sync"
}

func (e *concEval) isCtxDoneRecv(x ast.Expr) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	return isContextType(e.info.TypeOf(sel.X))
}

func (e *concEval) addBlocking(pos token.Pos, what string, inGo bool) {
	for _, b := range e.out.Blocking {
		if b.Pos == pos {
			return
		}
	}
	e.out.Blocking = append(e.out.Blocking, BlockSite{Pos: pos, What: what, InGo: inGo})
}

// markBlock snapshots the must-held lockset at a blocking site during
// the CFG replay. Comm ops of a blocking select attribute to the select
// itself; positions that are not blocking sites are ignored.
func (e *concEval) markBlock(pos token.Pos, st *lockState) {
	if sp, ok := e.selectSite[pos]; ok {
		pos = sp
	}
	i, ok := e.blockIdx[pos]
	if !ok {
		return
	}
	b := &e.out.Blocking[i]
	if b.Held == nil && len(st.must) > 0 {
		b.Held = append([]*types.Var(nil), st.must...)
		b.ReadHeld = append([]*types.Var(nil), st.reads...)
	}
}

// --- the CFG-driven lockset walk ---

// runCtx runs the lockset dataflow over one context's CFG to a
// fixpoint, then replays each reachable block once to record accesses,
// channel ops and calls with their converged entry state.
func (e *concEval) runCtx() {
	g := cfg.Build(e.cur.body)
	in := make([]lockState, len(g.Blocks))
	for i := range in {
		in[i].bottom = true
	}
	in[0] = lockState{}
	work := []*cfg.Block{g.Blocks[0]}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		st := in[blk.Index].clone()
		for _, node := range blk.Nodes {
			e.applyNode(node, &st, false)
		}
		for _, succ := range blk.Succs {
			if in[succ.Index].join(st) {
				work = append(work, succ)
			}
		}
	}
	for _, blk := range g.Blocks {
		if in[blk.Index].bottom {
			continue // unreachable
		}
		st := in[blk.Index].clone()
		for _, node := range blk.Nodes {
			e.applyNode(node, &st, true)
		}
	}
}

// applyNode is the transfer function for one CFG node, recording facts
// when rec is set.
func (e *concEval) applyNode(node ast.Node, st *lockState, rec bool) {
	switch m := node.(type) {
	case *ast.AssignStmt:
		for _, r := range m.Rhs {
			e.walkExpr(r, st, rec)
		}
		for _, l := range m.Lhs {
			e.walkLHS(l, st, rec)
		}
	case *ast.IncDecStmt:
		e.walkLHS(m.X, st, rec)
	case *ast.SendStmt:
		if rec {
			e.markBlock(m.Pos(), st)
		}
		e.walkExpr(m.Value, st, rec)
		if f := chanField(e.info, m.Chan); f != nil {
			if rec {
				e.addChanOp(ChanOp{Field: f, Pos: m.Pos(), Kind: ChanSend, InGo: e.cur.inGo})
				if containsVar(st.closed, f) {
					e.addIssue(ChanIssue{Field: f, Pos: m.Pos(),
						Msg: "send on " + f.Name() + " possibly after close"})
				}
			}
		} else {
			e.walkExpr(m.Chan, st, rec)
		}
	case *ast.GoStmt:
		if lit, ok := ast.Unparen(m.Call.Fun).(*ast.FuncLit); ok {
			e.enqueue(lit, true, m.Pos())
			for _, arg := range m.Call.Args {
				e.walkExpr(arg, st, rec)
			}
		} else {
			e.callOp(m.Call, st, rec, true)
		}
	case *ast.DeferStmt:
		e.deferOp(m, st, rec)
	case *ast.ReturnStmt:
		for _, r := range m.Results {
			e.walkExpr(r, st, rec)
		}
	case *ast.ExprStmt:
		e.walkExpr(m.X, st, rec)
	case *ast.DeclStmt:
		if gd, ok := m.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						e.walkExpr(v, st, rec)
					}
				}
			}
		}
	case *ast.RangeStmt:
		// Shallow: the head only — the body lives in its own blocks.
		if rec {
			e.markBlock(m.Pos(), st)
		}
		e.walkExpr(m.X, st, rec)
		if m.Tok == token.ASSIGN {
			if m.Key != nil {
				e.walkLHS(m.Key, st, rec)
			}
			if m.Value != nil {
				e.walkLHS(m.Value, st, rec)
			}
		}
	case *ast.LabeledStmt:
		e.applyNode(m.Stmt, st, rec)
	case ast.Expr:
		e.walkExpr(m, st, rec)
	}
}

// deferOp handles a defer statement: deferred unlocks do not release
// the lock mid-function (that is exactly the defer idiom), deferred
// closes are ownership-relevant but do not enter the may-closed flow
// (they run at return), deferred literals analyze as fresh contexts.
func (e *concEval) deferOp(d *ast.DeferStmt, st *lockState, rec bool) {
	if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
		e.enqueue(lit, e.cur.inGo, e.cur.goPos)
		return
	}
	if id, ok := ast.Unparen(d.Call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := e.info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "close" && len(d.Call.Args) == 1 {
			if f := chanField(e.info, d.Call.Args[0]); f != nil && rec {
				e.addChanOp(ChanOp{Field: f, Pos: d.Call.Pos(), Kind: ChanClose, Deferred: true, InGo: e.cur.inGo})
			}
			return
		}
	}
	if sel, ok := ast.Unparen(d.Call.Fun).(*ast.SelectorExpr); ok && isLockOpName(sel.Sel.Name) {
		if v := tokenVar(e.info, sel.X); v != nil && isMutex(v.Type()) {
			return // deferred unlock: the lock stays held for the body
		}
	}
	for _, arg := range d.Call.Args {
		e.walkExpr(arg, st, rec)
	}
}

func (e *concEval) enqueue(lit *ast.FuncLit, inGo bool, goPos token.Pos) {
	if e.queued[lit.Body] {
		return
	}
	e.queued[lit.Body] = true
	e.queue = append(e.queue, concCtx{body: lit.Body, inGo: inGo, goPos: goPos})
}

func isLockOpName(name string) bool {
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		return true
	}
	return false
}

// walkLHS records the written field of an assignment target: `s.f`,
// `s.m[k]`, `*s.p` all write through one field variable.
func (e *concEval) walkLHS(l ast.Expr, st *lockState, rec bool) {
	for {
		switch x := l.(type) {
		case *ast.ParenExpr:
			l = x.X
		case *ast.IndexExpr:
			e.walkExpr(x.Index, st, rec)
			l = x.X
		case *ast.StarExpr:
			l = x.X
		case *ast.SelectorExpr:
			if sel := e.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok && recordableField(v) && rec {
					owned, rootParam := e.classifyBase(x.X)
					e.addAccess(FieldAccess{Field: v, Pos: x.Sel.Pos(), Write: true,
						Owned: owned, RootParam: rootParam}, st)
				}
				e.walkExpr(x.X, st, rec)
				return
			}
			l = x.X
		default:
			return
		}
	}
}

// walkExpr records field reads and applies call effects, recursing
// shallowly; function literals become separate contexts.
func (e *concEval) walkExpr(x ast.Expr, st *lockState, rec bool) {
	switch x := x.(type) {
	case *ast.ParenExpr:
		e.walkExpr(x.X, st, rec)
	case *ast.SelectorExpr:
		if sel := e.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok && recordableField(v) && rec {
				owned, rootParam := e.classifyBase(x.X)
				e.addAccess(FieldAccess{Field: v, Pos: x.Sel.Pos(), Write: false,
					Owned: owned, RootParam: rootParam}, st)
			}
		}
		e.walkExpr(x.X, st, rec)
	case *ast.CallExpr:
		e.callOp(x, st, rec, false)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW && rec {
			e.markBlock(x.Pos(), st)
		}
		e.walkExpr(x.X, st, rec)
	case *ast.StarExpr:
		e.walkExpr(x.X, st, rec)
	case *ast.IndexExpr:
		e.walkExpr(x.X, st, rec)
		e.walkExpr(x.Index, st, rec)
	case *ast.SliceExpr:
		e.walkExpr(x.X, st, rec)
	case *ast.TypeAssertExpr:
		e.walkExpr(x.X, st, rec)
	case *ast.BinaryExpr:
		e.walkExpr(x.X, st, rec)
		e.walkExpr(x.Y, st, rec)
	case *ast.KeyValueExpr:
		e.walkExpr(x.Value, st, rec)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			e.walkExpr(elt, st, rec)
		}
	case *ast.FuncLit:
		e.enqueue(x, e.cur.inGo, e.cur.goPos)
	}
}

// callOp classifies one call: lock operation, channel close, or a call
// whose concurrency context is recorded for the bottom-up fixpoint.
// asGo marks the direct call of a `go f()` statement.
func (e *concEval) callOp(call *ast.CallExpr, st *lockState, rec bool, asGo bool) {
	if rec {
		e.markBlock(call.Pos(), st)
	}
	fun := ast.Unparen(call.Fun)
	if sel, ok := fun.(*ast.SelectorExpr); ok && isLockOpName(sel.Sel.Name) {
		if v := tokenVar(e.info, sel.X); v != nil && isMutex(v.Type()) {
			switch sel.Sel.Name {
			case "Lock", "RLock":
				read := sel.Sel.Name == "RLock"
				st.must = appendVars(st.must, []*types.Var{v})
				st.may = appendVars(st.may, []*types.Var{v})
				if read {
					st.reads = appendVars(st.reads, []*types.Var{v})
				} else {
					st.reads = removeVar(st.reads, v)
				}
			case "Unlock", "RUnlock":
				st.must = removeVar(st.must, v)
				st.may = removeVar(st.may, v)
				st.reads = removeVar(st.reads, v)
			}
			// TryLock success is path-dependent; treated as not held.
			return
		}
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := e.info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "close" && len(call.Args) == 1 {
				if f := chanField(e.info, call.Args[0]); f != nil {
					if rec {
						e.addChanOp(ChanOp{Field: f, Pos: call.Pos(), Kind: ChanClose, InGo: e.cur.inGo})
						if containsVar(st.closed, f) {
							e.addIssue(ChanIssue{Field: f, Pos: call.Pos(),
								Msg: "double close of " + f.Name()})
						}
					}
					st.closed = appendVars(st.closed, []*types.Var{f})
					return
				}
			}
			for _, arg := range call.Args {
				e.walkExpr(arg, st, rec)
			}
			return
		}
	}
	// sync/atomic calls synchronize their operands: skip them entirely.
	if fn := analysis.CalleeFunc(e.info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
		return
	}
	e.walkExpr(fun, st, rec)
	for _, arg := range call.Args {
		e.walkExpr(arg, st, rec)
	}
	if rec && e.edges[call.Pos()] {
		e.recordCall(call, st, asGo)
	}
}

func (e *concEval) recordCall(call *ast.CallExpr, st *lockState, asGo bool) {
	cc := ConcCall{
		Pos:      call.Pos(),
		Held:     append([]*types.Var(nil), st.must...),
		ReadHeld: append([]*types.Var(nil), st.reads...),
		Closed:   append([]*types.Var(nil), st.closed...),
		RecvRoot: -1,
		InGo:     e.cur.inGo || asGo,
	}
	rootIdx := func(expr ast.Expr) int {
		if v := rootVar(e.info, expr); v != nil {
			if p, ok := e.params[v]; ok {
				return p
			}
		}
		return -1
	}
	leak := func(expr ast.Expr, param int) bool {
		root := rootVar(e.info, expr)
		if root == nil || param >= 0 {
			return false // fresh value, or accounted as a parameter
		}
		owned, _ := e.classifyBase(expr)
		return !owned
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		cc.RecvRoot = rootIdx(sel.X)
		if isContextType(e.info.TypeOf(sel.X)) {
			cc.PassesCtx = true
		}
		cc.RecvAlias = aliasable(e.info.TypeOf(sel.X))
		cc.RecvLeak = leak(sel.X, cc.RecvRoot)
	}
	for _, arg := range call.Args {
		root := rootIdx(arg)
		cc.ArgRoots = append(cc.ArgRoots, root)
		if isContextType(e.info.TypeOf(arg)) {
			cc.PassesCtx = true
		}
		cc.ArgAlias = append(cc.ArgAlias, aliasable(e.info.TypeOf(arg)))
		cc.ArgLeak = append(cc.ArgLeak, leak(arg, root))
	}
	for _, prev := range e.out.Calls {
		if prev.Pos == cc.Pos {
			return
		}
	}
	e.out.Calls = append(e.out.Calls, cc)
}

// classifyBase resolves the base expression of a field access (or a
// passed value): owned means it roots in a local the current context
// provably owns — never published to another goroutine (goEscapes /
// send marking) and, inside a go literal, declared by the literal
// itself. rootParam is the parameter slot the base roots in, or -1.
// Parameters, receivers, captured variables, package-level variables
// and complex bases are never owned.
func (e *concEval) classifyBase(base ast.Expr) (owned bool, rootParam int) {
	root := rootVar(e.info, base)
	if root == nil || root.IsField() {
		return false, -1
	}
	if p, isParam := e.params[root]; isParam {
		return false, p
	}
	if e.sharedVars[root] {
		return false, -1
	}
	if root.Pkg() != nil && root.Parent() == root.Pkg().Scope() {
		return false, -1 // package-level variable
	}
	if e.cur.inGo {
		// Only locals the goroutine body itself declares are private;
		// anything declared outside the literal is a captured variable
		// the spawner still sees.
		return e.cur.body.Pos() <= root.Pos() && root.Pos() < e.cur.body.End(), -1
	}
	return true, -1
}

func (e *concEval) addAccess(a FieldAccess, st *lockState) {
	a.InGo = e.cur.inGo
	a.GoPos = e.cur.goPos
	a.Held = append([]*types.Var(nil), st.must...)
	a.MayHeld = append([]*types.Var(nil), st.may...)
	for _, prev := range e.out.Accesses {
		if prev.Pos == a.Pos && prev.Field == a.Field && prev.Write == a.Write {
			return
		}
	}
	e.out.Accesses = append(e.out.Accesses, a)
}

// aliasable reports whether a value of type t can alias state the
// provider of the value still holds: reference types, and structs or
// arrays carrying one. depth-capped against recursive types.
func aliasable(t types.Type) bool {
	return aliasableDepth(t, 4)
}

func aliasableDepth(t types.Type, depth int) bool {
	if t == nil || depth == 0 {
		return t != nil // unknown or truncated: assume aliasable
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Map, *types.Slice, *types.Chan, *types.Signature:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if aliasableDepth(u.Field(i).Type(), depth-1) {
				return true
			}
		}
		return false
	case *types.Array:
		return aliasableDepth(u.Elem(), depth-1)
	default:
		return false
	}
}

func (e *concEval) addChanOp(op ChanOp) {
	for _, prev := range e.out.ChanOps {
		if prev.Pos == op.Pos && prev.Kind == op.Kind {
			return
		}
	}
	e.out.ChanOps = append(e.out.ChanOps, op)
}

func (e *concEval) addIssue(is ChanIssue) {
	for _, prev := range e.out.Issues {
		if prev.Pos == is.Pos && prev.Msg == is.Msg {
			return
		}
	}
	e.out.Issues = append(e.out.Issues, is)
}

// deferredCloseIssues reports a channel field closed both by a
// deferred close and another close in the same function: the deferred
// one runs last, so the pair is a double close.
func (e *concEval) deferredCloseIssues() {
	for _, d := range e.out.ChanOps {
		if d.Kind != ChanClose || !d.Deferred {
			continue
		}
		for _, o := range e.out.ChanOps {
			if o.Kind == ChanClose && !o.Deferred && o.Field == d.Field {
				e.addIssue(ChanIssue{Field: d.Field, Pos: d.Pos,
					Msg: "double close of " + d.Field.Name() + " (also closed at a non-deferred site)"})
			}
		}
	}
}

// --- the bottom-up fixpoint ---

// concFlow folds callee concurrency facts into n. Returns true when
// n's summary grew. Monotone: sets and bits only grow.
func (c *computer) concFlow(n *callgraph.Node) bool {
	f := c.set.facts[n]
	changed := false
	edges := make(map[token.Pos][]*callgraph.Node)
	for _, e := range n.Out {
		edges[e.Pos] = append(edges[e.Pos], e.Callee)
	}
	for _, call := range f.Conc.Calls {
		for _, callee := range edges[call.Pos] {
			cf := c.set.facts[callee]
			if cf == nil {
				continue
			}
			// Transitive channel-field send/close sets.
			if merged := appendVars(f.Conc.SendFields, cf.Conc.SendFields); len(merged) != len(f.Conc.SendFields) {
				f.Conc.SendFields = merged
				changed = true
			}
			if merged := appendVars(f.Conc.CloseFields, cf.Conc.CloseFields); len(merged) != len(f.Conc.CloseFields) {
				f.Conc.CloseFields = merged
				changed = true
			}
			// A call into a sender/closer of an already-closed field is
			// a send/close after close one hop removed.
			for _, closed := range call.Closed {
				if containsVar(cf.Conc.SendFields, closed) {
					before := len(f.Conc.Issues)
					f.Conc.Issues = addConcIssue(f.Conc.Issues, ChanIssue{
						Field: closed, Pos: call.Pos,
						Msg: "call to " + callee.Name() + " may send on " + closed.Name() + " after close",
						Via: []Hop{{Name: callee.Name(), Pos: call.Pos}},
					})
					changed = changed || len(f.Conc.Issues) != before
				}
				if containsVar(cf.Conc.CloseFields, closed) {
					before := len(f.Conc.Issues)
					f.Conc.Issues = addConcIssue(f.Conc.Issues, ChanIssue{
						Field: closed, Pos: call.Pos,
						Msg: "call to " + callee.Name() + " may close " + closed.Name() + " again after close",
						Via: []Hop{{Name: callee.Name(), Pos: call.Pos}},
					})
					changed = changed || len(f.Conc.Issues) != before
				}
			}
			// May-block propagates along calls that forward no context
			// and run on the caller's own goroutine.
			if cf.Conc.MayBlock && !call.PassesCtx && !call.InGo && !f.Conc.MayBlock {
				f.Conc.MayBlock = true
				f.Conc.BlockVia = append([]Hop{{Name: callee.Name(), Pos: call.Pos}}, cf.Conc.BlockVia...)
				changed = true
			}
			// Escape bits substitute through the argument→parameter map.
			for slot, callerParam := range calleeSlots(call, callee) {
				if callerParam < 0 {
					continue
				}
				if cf.Conc.EscapeGo&ParamOrigin(slot) != 0 && f.Conc.EscapeGo&ParamOrigin(callerParam) == 0 {
					f.Conc.EscapeGo |= ParamOrigin(callerParam)
					changed = true
				}
				if cf.Conc.EscapeChan&ParamOrigin(slot) != 0 && f.Conc.EscapeChan&ParamOrigin(callerParam) == 0 {
					f.Conc.EscapeChan |= ParamOrigin(callerParam)
					changed = true
				}
			}
		}
	}
	return changed
}

func addConcIssue(issues []ChanIssue, is ChanIssue) []ChanIssue {
	for _, prev := range issues {
		if prev.Pos == is.Pos && prev.Msg == is.Msg {
			return issues
		}
	}
	return append(issues, is)
}

// calleeSlots maps callee parameter slots (receiver first) to caller
// parameter indices, -1 for slots fed by non-parameter values. The
// variadic tail folds onto the last slot; a receiver slot resolves only
// when the call had a selector base (bound-method values invoked as
// plain function values keep their receiver opaque).
func calleeSlots(call ConcCall, callee *callgraph.Node) []int {
	sig := callee.Func.Type().(*types.Signature)
	offset := 0
	if sig.Recv() != nil {
		offset = 1
	}
	slots := make([]int, sig.Params().Len()+offset)
	for i := range slots {
		slots[i] = -1
	}
	if offset == 1 {
		slots[0] = call.RecvRoot
	}
	for i, root := range call.ArgRoots {
		s := i + offset
		if s >= len(slots) {
			s = len(slots) - 1
		}
		if s >= 0 && slots[s] < 0 {
			slots[s] = root
		}
	}
	return slots
}
