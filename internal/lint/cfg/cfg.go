// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies using only the standard library — the flow-sensitive
// substrate under the nilfacade and errflow analyzers, mirroring the
// role golang.org/x/tools/go/cfg plays for the real nilness analyzer.
//
// The graph is a list of basic blocks. Each block holds the statements
// and control expressions that execute unconditionally once the block
// is entered, in order, and edges to its successors. A block that ends
// in a two-way branch records the branch condition in Cond, with
// Succs[0] the true edge and Succs[1] the false edge, so dataflow
// analyses can refine facts along the arms of `if x == nil` guards.
//
// The builder understands if/for/range/switch/type-switch/select,
// labeled statements, break/continue/goto/fallthrough, and treats
// return, panic, and the process-terminating stdlib calls (os.Exit,
// log.Fatal*, testing's FailNow family via *.Fatal*) as having no
// successors. Deferred calls and `go` statements appear as ordinary
// nodes: their function literals run on another timeline and are
// analyzed separately by whoever cares.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks holds every block, Blocks[0] being the entry. Unreachable
	// blocks (e.g. code after return) are present but excluded from
	// Reachable.
	Blocks []*Block
}

// Block is a basic block.
type Block struct {
	Index int
	// Nodes are the statements and control expressions executed in
	// order when the block runs: ast.Stmt for straight-line code,
	// ast.Expr for branch conditions, switch tags, and range operands.
	Nodes []ast.Node
	// Cond is the branch condition when the block ends in a two-way
	// conditional branch; Succs[0] is then the true edge and Succs[1]
	// the false edge. Nil for unconditional or multi-way exits.
	Cond  ast.Expr
	Succs []*Block
	Preds []*Block
}

// String renders "block 3 → 4 5" for debugging and tests.
func (b *Block) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "block %d →", b.Index)
	for _, s := range b.Succs {
		fmt.Fprintf(&sb, " %d", s.Index)
	}
	return sb.String()
}

// Build constructs the CFG of a function body. A nil body (declared
// but externally implemented function) yields a graph with one empty
// entry block.
func Build(body *ast.BlockStmt) *CFG {
	b := &builder{graph: &CFG{}, labels: map[string]*labelScope{}}
	entry := b.newBlock()
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	for _, g := range b.gotos {
		if ls := b.labels[g.label]; ls != nil && ls.gotoTo != nil {
			edge(g.from, ls.gotoTo)
		}
	}
	b.graph.renumber()
	return b.graph
}

// Reachable returns the set of blocks reachable from the entry.
func (g *CFG) Reachable() map[*Block]bool {
	seen := make(map[*Block]bool)
	if len(g.Blocks) == 0 {
		return seen
	}
	stack := []*Block{g.Blocks[0]}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[blk] {
			continue
		}
		seen[blk] = true
		stack = append(stack, blk.Succs...)
	}
	return seen
}

// renumber assigns final indices and drops empty never-entered blocks'
// bookkeeping; blocks keep creation order, entry first.
func (g *CFG) renumber() {
	for i, blk := range g.Blocks {
		blk.Index = i
	}
}

// labelScope records the jump targets of one labeled statement.
type labelScope struct {
	breakTo    *Block // after the labeled loop/switch/select
	continueTo *Block // the labeled loop's post/condition block
	gotoTo     *Block // the labeled statement itself
}

type builder struct {
	graph *CFG
	// cur is the block under construction; nil after a terminator
	// (return/panic/break/…) until the next statement opens a fresh
	// unreachable block.
	cur *Block

	// Enclosing loop/switch context for unlabeled break/continue.
	breakTo    []*Block
	continueTo []*Block

	labels map[string]*labelScope
	// pendingLabel is set while building the statement a label names,
	// so loops can register their continue target under it.
	pendingLabel string

	// gotos collects forward gotos to patch once the label is seen.
	gotos []pendingGoto
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *builder) newBlock() *Block {
	blk := &Block{}
	b.graph.Blocks = append(b.graph.Blocks, blk)
	return blk
}

// edge links from → to.
func edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// current returns the block under construction, opening a fresh
// (unreachable) one after a terminator so trailing dead code is still
// represented.
func (b *builder) current() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *builder) add(n ast.Node) {
	blk := b.current()
	blk.Nodes = append(blk.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label's target block starts here; fall through into the
		// labeled statement with the label pending so loops register
		// their continue edge.
		target := b.newBlock()
		edge(b.cur, target)
		b.cur = target
		ls := b.labelEntry(s.Label.Name)
		ls.gotoTo = target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		condBlk := b.current()
		condBlk.Nodes = append(condBlk.Nodes, s.Cond)
		condBlk.Cond = s.Cond

		thenBlk := b.newBlock()
		edge(condBlk, thenBlk) // Succs[0]: condition true
		afterBlk := b.newBlock()

		b.cur = thenBlk
		b.stmt(s.Body)
		edge(b.cur, afterBlk)

		if s.Else != nil {
			elseBlk := b.newBlock()
			edge(condBlk, elseBlk) // Succs[1]: condition false
			b.cur = elseBlk
			b.stmt(s.Else)
			edge(b.cur, afterBlk)
		} else {
			edge(condBlk, afterBlk) // Succs[1]: condition false
		}
		b.cur = afterBlk

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		condBlk := b.newBlock()
		edge(b.cur, condBlk)
		afterBlk := b.newBlock()
		postBlk := condBlk // continue target when no post statement
		if s.Post != nil {
			postBlk = b.newBlock()
		}

		b.cur = condBlk
		if s.Cond != nil {
			condBlk.Nodes = append(condBlk.Nodes, s.Cond)
			condBlk.Cond = s.Cond
			bodyBlk := b.newBlock()
			edge(condBlk, bodyBlk)  // true
			edge(condBlk, afterBlk) // false
			b.cur = bodyBlk
		}
		b.pushLoop(afterBlk, postBlk, label)
		b.stmt(s.Body)
		b.popLoop()
		edge(b.cur, postBlk)
		if s.Post != nil {
			b.cur = postBlk
			b.stmt(s.Post)
			edge(b.cur, condBlk)
		}
		b.cur = afterBlk

	case *ast.RangeStmt:
		label := b.takeLabel()
		headBlk := b.newBlock()
		edge(b.cur, headBlk)
		// The RangeStmt itself marks the per-iteration key/value
		// assignment and the use of s.X. Analyzers reading block nodes
		// must treat it shallowly (Key/Value defs, X use) and must not
		// descend into its Body, which lives in the body blocks.
		headBlk.Nodes = append(headBlk.Nodes, s)

		bodyBlk := b.newBlock()
		afterBlk := b.newBlock()
		edge(headBlk, bodyBlk)
		edge(headBlk, afterBlk)

		b.cur = bodyBlk
		b.pushLoop(afterBlk, headBlk, label)
		b.stmt(s.Body)
		b.popLoop()
		edge(b.cur, headBlk)
		b.cur = afterBlk

	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body)

	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body)

	case *ast.SelectStmt:
		label := b.takeLabel()
		headBlk := b.current()
		afterBlk := b.newBlock()
		b.pushBreakable(afterBlk, label)
		anyCase := false
		for _, cc := range s.Body.List {
			cc, ok := cc.(*ast.CommClause)
			if !ok {
				continue
			}
			anyCase = true
			caseBlk := b.newBlock()
			edge(headBlk, caseBlk)
			b.cur = caseBlk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			edge(b.cur, afterBlk)
		}
		b.popBreakable()
		if !anyCase {
			// select{} blocks forever.
			b.cur = nil
		} else {
			b.cur = afterBlk
		}

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				edge(b.cur, b.labelEntry(s.Label.Name).breakTo)
			} else if n := len(b.breakTo); n > 0 {
				edge(b.cur, b.breakTo[n-1])
			}
			b.cur = nil
		case token.CONTINUE:
			if s.Label != nil {
				edge(b.cur, b.labelEntry(s.Label.Name).continueTo)
			} else if n := len(b.continueTo); n > 0 {
				edge(b.cur, b.continueTo[n-1])
			}
			b.cur = nil
		case token.GOTO:
			if s.Label != nil {
				if ls := b.labels[s.Label.Name]; ls != nil && ls.gotoTo != nil {
					edge(b.cur, ls.gotoTo)
				} else {
					b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
				}
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// switchStmt links the fallthrough edge; nothing to do here.
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.cur = nil

	case *ast.ExprStmt:
		b.add(s)
		if terminates(s.X) {
			b.cur = nil
		}

	case *ast.DeclStmt, *ast.AssignStmt, *ast.IncDecStmt, *ast.SendStmt,
		*ast.GoStmt, *ast.DeferStmt, *ast.EmptyStmt:
		b.add(s)

	default:
		if s != nil {
			b.add(s)
		}
	}
}

// switchStmt builds value and type switches: head block evaluates the
// tag, one block per clause, every clause edges to the after block,
// fallthrough edges to the next clause. Absent a default clause the
// head also edges to after.
func (b *builder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	label := b.takeLabel()
	if init != nil {
		b.stmt(init)
	}
	headBlk := b.current()
	if tag != nil {
		headBlk.Nodes = append(headBlk.Nodes, tag)
	}
	if assign != nil {
		headBlk.Nodes = append(headBlk.Nodes, assign)
	}
	afterBlk := b.newBlock()
	b.pushBreakable(afterBlk, label)

	var clauses []*ast.CaseClause
	for _, cc := range body.List {
		if cc, ok := cc.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		edge(headBlk, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		edge(headBlk, afterBlk)
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		for _, e := range cc.List {
			blocks[i].Nodes = append(blocks[i].Nodes, e)
		}
		fallsThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
			b.stmt(st)
		}
		if fallsThrough && i+1 < len(blocks) {
			edge(b.cur, blocks[i+1])
			b.cur = nil
		} else {
			edge(b.cur, afterBlk)
		}
	}
	b.popBreakable()
	b.cur = afterBlk
}

func (b *builder) labelEntry(name string) *labelScope {
	ls := b.labels[name]
	if ls == nil {
		ls = &labelScope{}
		b.labels[name] = ls
	}
	return ls
}

// takeLabel consumes the pending label, if any, returning its name.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) pushLoop(breakTo, continueTo *Block, label string) {
	b.breakTo = append(b.breakTo, breakTo)
	b.continueTo = append(b.continueTo, continueTo)
	if label != "" {
		ls := b.labelEntry(label)
		ls.breakTo = breakTo
		ls.continueTo = continueTo
	}
}

func (b *builder) popLoop() {
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]
}

func (b *builder) pushBreakable(breakTo *Block, label string) {
	b.breakTo = append(b.breakTo, breakTo)
	if label != "" {
		b.labelEntry(label).breakTo = breakTo
	}
}

func (b *builder) popBreakable() {
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
}

// terminates reports whether the expression is a call that never
// returns: the panic builtin, os.Exit, log.Fatal/Fatalf/Fatalln,
// runtime.Goexit, or any method named Fatal/Fatalf/FailNow/Skip*
// (testing.T-style). Purely syntactic — good enough for dead-edge
// pruning; a miss only adds a conservative extra edge.
func terminates(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			switch {
			case x.Name == "os" && name == "Exit":
				return true
			case x.Name == "log" && strings.HasPrefix(name, "Fatal"):
				return true
			case x.Name == "runtime" && name == "Goexit":
				return true
			}
		}
		switch name {
		case "Fatal", "Fatalf", "FailNow", "SkipNow", "Skipf", "Skip":
			// testing.T / log.Logger-style; only safe to treat as
			// terminating for the *testing methods, but analyzers run
			// over non-test files, where these names are rare.
			return true
		}
	}
	return false
}
