// Package cfg builds per-function control-flow graphs over go/ast for
// the flow-sensitive horselint analyzers (DESIGN.md §9). It is
// stdlib-only and purely syntactic (control flow needs no types): blocks
// hold the statements and condition expressions of one function body,
// and edges follow Go's control constructs — if/else, for/range loops,
// switch and type switch (with fallthrough), select, goto, labeled
// break/continue, and the short-circuit operators && and ||, which get
// their own blocks so an analyzer sees `a && b` as the branch it is.
//
// Deliberate simplifications, documented because analyzers inherit them:
//
//   - A deferred call is recorded in Graph.Defers and its statement
//     appears in the block where the defer executes, but the call's run
//     point (function exit) is not modelled as an edge. Analyzers that
//     care (faulterr's "checked in a defer", lockcharge's "deferred
//     unlock does not release early") consult Graph.Defers directly.
//   - A fallthrough edge enters the next case clause's block including
//     its case-expression nodes; real Go skips re-evaluating them. The
//     extra nodes are conditions, which no current analyzer treats as
//     effects.
//   - panic(...) and the process-terminating calls (os.Exit, Fatal*,
//     Goexit) end the path with an edge to the exit block.
//
// Function literals are opaque: a FuncLit appearing in a statement is
// part of that statement's node, and its body is analyzed as a separate
// graph (see Functions). Inspect is the shallow traversal analyzers use
// so nested literal bodies never leak facts into the enclosing flow.
package cfg

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Name identifies the function in dumps and test failures.
	Name string
	// Entry is Blocks[0]; it has no nodes of its own.
	Entry *Block
	// Exit is Blocks[1]; every return, panic, and fall-off-the-end path
	// edges into it.
	Exit *Block
	// Blocks lists every block in creation order; Block.Index is the
	// position here, which fixes the deterministic iteration order the
	// dataflow worklist and diagnostic replay rely on.
	Blocks []*Block
	// Defers collects the function's defer statements in source order.
	Defers []*ast.DeferStmt
}

// Block is one straight-line run of nodes.
type Block struct {
	Index int
	// Kind names the construct that created the block ("entry", "exit",
	// "if.then", "for.head", "range.body", …) — golden tests key on it.
	Kind string
	// Nodes are statements and condition expressions in execution
	// order. Compound statements never appear whole: an if contributes
	// its init and cond, a range its *ast.RangeStmt head (key/value
	// binding + operand), bodies go to their own blocks.
	Nodes []ast.Node
	// Succs are the possible successors in creation order.
	Succs []*Block
}

// Build constructs the graph of fn, which must be an *ast.FuncDecl or
// *ast.FuncLit; name labels the graph. A nil body (declaration without
// definition) yields the trivial entry→exit graph.
func Build(name string, fn ast.Node) *Graph {
	var body *ast.BlockStmt
	switch f := fn.(type) {
	case *ast.FuncDecl:
		body = f.Body
	case *ast.FuncLit:
		body = f.Body
	default:
		panic(fmt.Sprintf("cfg: Build on %T (want *ast.FuncDecl or *ast.FuncLit)", fn))
	}
	b := &builder{g: &Graph{Name: name}, labels: make(map[string]*Block)}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	first := b.newBlock("body")
	b.edge(b.g.Entry, first)
	b.cur = first
	if body != nil {
		b.stmtList(body.List)
	}
	b.edge(b.cur, b.g.Exit)
	for _, pg := range b.gotos {
		if t := b.labels[pg.label]; t != nil {
			b.edge(pg.from, t)
		}
	}
	return b.g
}

// Functions returns every function in the file with a body — each
// FuncDecl plus every nested FuncLit — paired with a stable name
// (FuncLits get "outer$1", "outer$2", … in source order).
func Functions(file *ast.File) []NamedFunc {
	var out []NamedFunc
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fd.Body != nil {
			out = append(out, NamedFunc{Name: fd.Name.Name, Node: fd})
		}
		n := 0
		ast.Inspect(fd, func(x ast.Node) bool {
			if lit, ok := x.(*ast.FuncLit); ok {
				n++
				out = append(out, NamedFunc{
					Name: fmt.Sprintf("%s$%d", fd.Name.Name, n),
					Node: lit,
				})
			}
			return true
		})
	}
	return out
}

// NamedFunc pairs a function node with its display name.
type NamedFunc struct {
	Name string
	Node ast.Node // *ast.FuncDecl or *ast.FuncLit
}

// Inspect walks n like ast.Inspect but does not descend into function
// literal bodies: facts about the enclosing function's flow must not
// absorb statements that run in a different frame at a different time.
// A *ast.RangeStmt root is treated as the head it stands for in a block
// (key, value, operand) — its body has its own blocks and must not be
// traversed twice. RangeStmt never nests inside another block node:
// stmt() decomposes every other compound statement.
func Inspect(n ast.Node, visit func(ast.Node) bool) {
	if r, ok := n.(*ast.RangeStmt); ok {
		if !visit(r) {
			return
		}
		if r.Key != nil {
			Inspect(r.Key, visit)
		}
		if r.Value != nil {
			Inspect(r.Value, visit)
		}
		Inspect(r.X, visit)
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok && x != n {
			return false
		}
		return visit(x)
	})
}

// builder threads the construction state.
type builder struct {
	g   *Graph
	cur *Block
	// targets is the innermost-first stack of enclosing breakable and
	// continuable constructs.
	targets *target
	// fallthroughTo is the next case clause during switch clause
	// construction.
	fallthroughTo *Block
	labels        map[string]*Block
	gotos         []pendingGoto
	// pendingLabel is the label immediately preceding a for/range/
	// switch/select statement, consumed by that construct.
	pendingLabel string
}

type target struct {
	up         *target
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// jump edges the current block to target and starts a fresh (initially
// unreachable) block, used after terminators so later statements —
// including labels that are goto targets — still materialize.
func (b *builder) jump(to *Block) {
	b.edge(b.cur, to)
	b.cur = b.newBlock("unreachable")
}

func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
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
	case *ast.EmptyStmt:
	case *ast.LabeledStmt:
		lb := b.newBlock("label." + s.Label.Name)
		b.edge(b.cur, lb)
		b.cur = lb
		b.labels[s.Label.Name] = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)
	case *ast.ExprStmt:
		b.add(s.X)
		if isTerminatorCall(s.X) {
			b.jump(b.g.Exit)
		}
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, b.takeLabel())
	case *ast.RangeStmt:
		b.rangeStmt(s, b.takeLabel())
	case *ast.SwitchStmt:
		b.switchStmt(s, b.takeLabel())
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, b.takeLabel())
	case *ast.SelectStmt:
		b.selectStmt(s, b.takeLabel())
	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, …
		b.add(s)
	}
}

func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) branch(s *ast.BranchStmt) {
	switch s.Tok {
	case token.BREAK:
		for t := b.targets; t != nil; t = t.up {
			if s.Label == nil || t.label == s.Label.Name {
				b.jump(t.breakTo)
				return
			}
		}
	case token.CONTINUE:
		for t := b.targets; t != nil; t = t.up {
			if t.continueTo != nil && (s.Label == nil || t.label == s.Label.Name) {
				b.jump(t.continueTo)
				return
			}
		}
	case token.GOTO:
		if t := b.labels[s.Label.Name]; t != nil {
			b.jump(t)
			return
		}
		from := b.cur
		b.gotos = append(b.gotos, pendingGoto{from: from, label: s.Label.Name})
		b.cur = b.newBlock("unreachable")
		return
	case token.FALLTHROUGH:
		if b.fallthroughTo != nil {
			b.jump(b.fallthroughTo)
			return
		}
	}
	// Malformed branch (no matching target); drop the edge rather than
	// panic — the file does not compile anyway.
}

// cond wires e's evaluation into the graph with edges to t when the
// condition holds and f when it does not, decomposing short-circuit
// operators and negation into explicit branches.
func (b *builder) cond(e ast.Expr, t, f *Block) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		b.cond(x.X, t, f)
		return
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			rhs := b.newBlock("cond.and")
			b.cond(x.X, rhs, f)
			b.cur = rhs
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			rhs := b.newBlock("cond.or")
			b.cond(x.X, t, rhs)
			b.cur = rhs
			b.cond(x.Y, t, f)
			return
		}
	}
	b.add(e)
	b.edge(b.cur, t)
	b.edge(b.cur, f)
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	then := b.newBlock("if.then")
	done := b.newBlock("if.done")
	els := done
	if s.Else != nil {
		els = b.newBlock("if.else")
	}
	b.cond(s.Cond, then, els)
	b.cur = then
	b.stmt(s.Body)
	b.edge(b.cur, done)
	if s.Else != nil {
		b.cur = els
		b.stmt(s.Else)
		b.edge(b.cur, done)
	}
	b.cur = done
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	b.edge(b.cur, head)
	body := b.newBlock("for.body")
	done := b.newBlock("for.done")
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
	}
	b.cur = head
	if s.Cond != nil {
		b.cond(s.Cond, body, done)
	} else {
		b.edge(b.cur, body)
	}
	b.targets = &target{up: b.targets, label: label, breakTo: done, continueTo: post}
	b.cur = body
	b.stmt(s.Body)
	b.targets = b.targets.up
	b.edge(b.cur, post)
	if s.Post != nil {
		b.cur = post
		b.add(s.Post)
		b.edge(b.cur, head)
	}
	b.cur = done
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock("range.head")
	b.edge(b.cur, head)
	b.cur = head
	b.add(s) // the head node: key/value binding plus the range operand
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	b.edge(head, body)
	b.edge(head, done)
	b.targets = &target{up: b.targets, label: label, breakTo: done, continueTo: head}
	b.cur = body
	b.stmt(s.Body)
	b.targets = b.targets.up
	b.edge(b.cur, head)
	b.cur = done
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	b.caseClauses(s.Body, label, true)
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	b.caseClauses(s.Body, label, false)
}

// caseClauses wires the clause blocks shared by switch and type switch;
// fallthrough (expression switches only) edges into the next clause.
func (b *builder) caseClauses(body *ast.BlockStmt, label string, allowFallthrough bool) {
	head := b.cur
	done := b.newBlock("switch.done")
	var blocks []*Block
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		blocks = append(blocks, b.newBlock("case"))
		if cc.List == nil {
			hasDefault = true
		}
	}
	for _, blk := range blocks {
		b.edge(head, blk)
	}
	if !hasDefault {
		b.edge(head, done)
	}
	b.targets = &target{up: b.targets, label: label, breakTo: done}
	for i, c := range body.List {
		cc := c.(*ast.CaseClause)
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		if allowFallthrough && i+1 < len(blocks) {
			b.fallthroughTo = blocks[i+1]
		} else {
			b.fallthroughTo = nil
		}
		b.stmtList(cc.Body)
		b.fallthroughTo = nil
		b.edge(b.cur, done)
	}
	b.targets = b.targets.up
	b.cur = done
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	done := b.newBlock("select.done")
	b.targets = &target{up: b.targets, label: label, breakTo: done}
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		blk := b.newBlock("select.comm")
		b.edge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.edge(b.cur, done)
	}
	b.targets = b.targets.up
	b.cur = done
}

// isTerminatorCall reports whether x is a call that never returns:
// panic, runtime.Goexit, os.Exit, or a Fatal-family logger/testing call.
func isTerminatorCall(x ast.Expr) bool {
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Exit", "Goexit", "Fatal", "Fatalf", "Fatalln":
			return true
		}
	}
	return false
}

// Dump renders the graph in the stable textual form the golden tests
// assert: one line per block, nodes separated by "; ", successors after
// "=>".
func (g *Graph) Dump(fset *token.FileSet) string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		// Suppress empty unreachable filler blocks; they are
		// construction artifacts (fresh blocks opened after return/
		// break/goto), and dropping them keeps goldens readable.
		if blk.Kind == "unreachable" && len(blk.Nodes) == 0 && !g.hasPred(blk) {
			continue
		}
		fmt.Fprintf(&sb, "b%d %s", blk.Index, blk.Kind)
		if len(blk.Nodes) > 0 {
			parts := make([]string, len(blk.Nodes))
			for i, n := range blk.Nodes {
				parts[i] = nodeText(fset, n)
			}
			fmt.Fprintf(&sb, ": %s", strings.Join(parts, "; "))
		}
		if len(blk.Succs) > 0 {
			ids := make([]string, len(blk.Succs))
			for i, s := range blk.Succs {
				ids[i] = fmt.Sprintf("b%d", s.Index)
			}
			fmt.Fprintf(&sb, " => %s", strings.Join(ids, " "))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func (g *Graph) hasPred(blk *Block) bool {
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s == blk {
				return true
			}
		}
	}
	return false
}

// nodeText renders one block node compactly on a single line.
func nodeText(fset *token.FileSet, n ast.Node) string {
	switch s := n.(type) {
	case *ast.RangeStmt:
		head := "range " + exprText(fset, s.X)
		if s.Key != nil {
			kv := exprText(fset, s.Key)
			if s.Value != nil {
				kv += ", " + exprText(fset, s.Value)
			}
			head = kv + " " + s.Tok.String() + " " + head
		}
		return head
	case *ast.DeferStmt:
		return "defer " + exprText(fset, s.Call)
	case *ast.GoStmt:
		return "go " + exprText(fset, s.Call)
	}
	return exprText(fset, n)
}

func exprText(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	s := buf.String()
	s = strings.ReplaceAll(s, "\n", " ")
	s = strings.ReplaceAll(s, "\t", "")
	return s
}

// ExprString renders a node in the compact single-line form analyzers
// use as stable fact keys and in diagnostics (e.g. the lock receiver
// "h.mu").
func ExprString(fset *token.FileSet, n ast.Node) string {
	return exprText(fset, n)
}
