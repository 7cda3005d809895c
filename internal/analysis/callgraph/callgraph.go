// Package callgraph builds a deterministic call graph over a loaded,
// type-checked lint package set. The graph is the substrate for the
// bottom-up function summaries in internal/analysis/summary and for the
// interprocedural analyzers (hotpath, faulterr, lockcharge, shardsafe,
// phaseann, sharedrand).
//
// Every edge is resolved from types.Info:
//
//   - calls of package-level functions in the set resolve statically;
//   - method calls on a concrete receiver resolve to the declared method
//     (promotion through embedding included);
//   - method calls on an interface declared in the set fan out to the
//     methods of every loaded named type whose method set implements
//     it (types.Implements), so an interface with one implementation
//     resolves exactly; generic named types are not candidates;
//   - calls into packages outside the set, including methods of
//     interfaces declared there, become external edges keyed by a
//     stable textual target ("fmt.Sprintf", "sync.(Mutex).Lock");
//   - calls of function values (locals, parameters, fields) stay
//     dynamic; builtins and conversions are not calls and get no edge.
//
// Function literals are first-class nodes named parent$1, parent$2, …
// in source order (matching the cfg package's naming); a literal that is
// invoked on the spot contributes a static call edge, any other
// appearance contributes a closure edge. Method values and references
// to package-level functions in non-call position contribute ref edges:
// the function may be called through the captured value, so clients
// that need soundness treat every edge kind as "may call".
//
// Determinism: nodes are created in (package, file, declaration) order,
// edges in source order, interface fan-out in sorted-ID order, and
// Tarjan's SCC condensation visits nodes in creation order, yielding a
// stable bottom-up (callees-before-callers) component order for the
// summary fixpoint.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"github.com/horse-faas/horse/internal/analysis/lint"
)

// Kind classifies how a call edge was resolved.
type Kind int

// The edge kinds, strongest resolution first.
const (
	// Static is a direct call to a package-level function in the set.
	Static Kind = iota
	// Method is a call of a concrete method declared in the set.
	Method
	// Iface is one implementation an interface method call may
	// dispatch to.
	Iface
	// Closure marks a function literal that escapes its creation site
	// (stored, passed, returned) rather than being invoked on the spot.
	Closure
	// Ref marks a method value or a package-level function referenced
	// in non-call position; the target may be called later.
	Ref
	// External is a call leaving the package set; Target names it.
	External
	// Dynamic is a call through a function value.
	Dynamic
)

var kindNames = [...]string{"static", "method", "iface", "closure", "ref", "external", "dynamic"}

// String returns the kind's dump name.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Edge is one outgoing call (or reference) from a function.
type Edge struct {
	Kind Kind
	// Callee is the resolved target for Static/Method/Iface/Closure/Ref
	// edges, nil otherwise.
	Callee *Node
	// Target is the stable textual target for External ("fmt.Sprintf",
	// "sync.(Mutex).Lock", "builtin.append") and Dynamic edges.
	Target string
	// Call is the call expression for call edges (nil for Closure/Ref).
	Call *ast.CallExpr
	// Pos anchors the edge for diagnostics.
	Pos token.Pos
}

// Describe names the edge target for diagnostics and dumps.
func (e Edge) Describe() string {
	if e.Callee != nil {
		return e.Callee.ID
	}
	return e.Target
}

// Node is one function, method, or function literal in the set.
type Node struct {
	// ID is the stable identifier: pkgpath.Func, pkgpath.(Recv).Method,
	// or parentID$N for function literals.
	ID string
	// Pkg and File locate the declaration.
	Pkg  *lint.Package
	File *lint.File
	// Decl is the *ast.FuncDecl or *ast.FuncLit.
	Decl ast.Node
	// Func is the declared function or method (nil for literals);
	// Parent is the function enclosing a literal (nil for declarations).
	Func   *types.Func
	Parent *Node
	// Name is the bare function or method name ("$N" suffixed names for
	// literals); Recv is the receiver's named type ("" for functions).
	Name string
	Recv string
	// Out lists the node's outgoing edges in source order.
	Out []Edge
	// SCC indexes the node's strongly connected component in Graph.SCCs.
	SCC int
}

// Body returns the function's body block (nil for bodyless decls).
func (n *Node) Body() *ast.BlockStmt {
	switch d := n.Decl.(type) {
	case *ast.FuncDecl:
		return d.Body
	case *ast.FuncLit:
		return d.Body
	}
	return nil
}

// Inspect visits the function's body in depth-first order without
// descending into nested function literals, which are nodes of their
// own.
func (n *Node) Inspect(visit func(ast.Node)) {
	if body := n.Body(); body != nil {
		ast.Inspect(body, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			if x != nil {
				visit(x)
			}
			return true
		})
	}
}

// Signature returns the function's type.
func (n *Node) Signature() *types.Signature {
	if n.Func != nil {
		return n.Func.Type().(*types.Signature)
	}
	sig, _ := n.Pkg.Info.TypeOf(n.Decl.(*ast.FuncLit)).(*types.Signature)
	return sig
}

// DisplayName renders the node's diagnostic name: "(Recv).Name" for
// methods and literals inside them, the bare name otherwise.
func (n *Node) DisplayName() string {
	if n.Recv != "" {
		return "(" + n.Recv + ")." + n.Name
	}
	return n.Name
}

// Graph is the call graph of one package set.
type Graph struct {
	// Nodes maps ID to node.
	Nodes map[string]*Node
	// Order lists nodes in deterministic creation order.
	Order []*Node
	// SCCs is the condensation in bottom-up order: every edge that
	// leaves a component points to an earlier component, so a single
	// left-to-right pass visits callees before callers.
	SCCs [][]*Node

	byDecl map[ast.Node]*Node
	byCall map[*ast.CallExpr][]Edge
}

// NodeOf returns the node for a FuncDecl or FuncLit, or nil.
func (g *Graph) NodeOf(decl ast.Node) *Node { return g.byDecl[decl] }

// EdgesAt returns the edges resolved for one call expression.
func (g *Graph) EdgesAt(call *ast.CallExpr) []Edge { return g.byCall[call] }

// Of returns the package set's call graph, built once per program and
// memoized.
func Of(prog *lint.Program) *Graph {
	return prog.Cached("callgraph", func() any {
		return Build(prog.Pkgs)
	}).(*Graph)
}

// Build constructs the call graph of the package set.
func Build(pkgs []*lint.Package) *Graph {
	b := &builder{
		graph:    &Graph{Nodes: map[string]*Node{}, byDecl: map[ast.Node]*Node{}, byCall: map[*ast.CallExpr][]Edge{}},
		byFunc:   map[*types.Func]*Node{},
		loaded:   map[*types.Package]bool{},
		dispatch: map[*types.Func][]*Node{},
	}
	for _, pkg := range pkgs {
		b.loaded[pkg.Types] = true
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) && named.TypeParams().Len() == 0 {
				b.named = append(b.named, named)
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.AST.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					b.addFunc(pkg, f, fd)
				}
			}
		}
	}
	b.resolve()
	b.condense()
	return b.graph
}

type builder struct {
	graph *Graph

	byFunc   map[*types.Func]*Node
	loaded   map[*types.Package]bool
	named    []*types.Named          // dispatch candidates, in package scope order
	dispatch map[*types.Func][]*Node // interface method -> implementations
}

func (b *builder) addFunc(pkg *lint.Package, f *lint.File, d *ast.FuncDecl) {
	fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
	if !ok {
		return
	}
	n := &Node{Pkg: pkg, File: f, Decl: d, Func: fn, Name: fn.Name()}
	n.ID = fn.Pkg().Path() + "." + fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		n.Recv = typeName(recv.Type())
		n.ID = fn.Pkg().Path() + ".(" + n.Recv + ")." + fn.Name()
	}
	b.addNode(n)
	b.byFunc[fn] = n
}

func (b *builder) addNode(n *Node) {
	b.graph.Nodes[n.ID] = n
	b.graph.Order = append(b.graph.Order, n)
	b.graph.byDecl[n.Decl] = n
}

// typeName names a receiver's base type: pointers stripped, type
// arguments dropped.
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// target renders the stable textual name of a function outside the set.
func target(fn *types.Func) string {
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path() + "."
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return path + "(" + typeName(recv.Type()) + ")." + fn.Name()
	}
	return path + fn.Name()
}

// resolve walks every function body and records its edges. Bodies are
// walked in creation order; function-literal nodes are appended as they
// are encountered, and their own bodies resolved in turn.
func (b *builder) resolve() {
	for i := 0; i < len(b.graph.Order); i++ {
		n := b.graph.Order[i]
		if body := n.Body(); body != nil {
			b.walk(n, body)
		}
	}
}

// walk records one function's call, closure, and ref edges.
func (b *builder) walk(n *Node, body *ast.BlockStmt) {
	info := n.Pkg.Info
	emit := func(e Edge) { n.Out = append(n.Out, e) }
	seq := 0
	litNode := func(lit *ast.FuncLit) *Node {
		if c := b.graph.byDecl[lit]; c != nil {
			return c
		}
		seq++
		child := &Node{
			ID:     n.ID + "$" + strconv.Itoa(seq),
			Pkg:    n.Pkg,
			File:   n.File,
			Decl:   lit,
			Parent: n,
			Name:   n.Name + "$" + strconv.Itoa(seq),
			Recv:   n.Recv,
		}
		b.addNode(child)
		return child
	}
	// A function or method named outside call position (a method value,
	// a function value) may be called through the value later.
	ref := func(obj types.Object, pos token.Pos) {
		if fn, ok := obj.(*types.Func); ok {
			if c := b.byFunc[fn.Origin()]; c != nil && c != n {
				emit(Edge{Kind: Ref, Callee: c, Pos: pos})
			}
		}
	}
	consumed := map[ast.Node]bool{}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			child := litNode(x)
			if !consumed[x] {
				emit(Edge{Kind: Closure, Callee: child, Pos: x.Pos()})
			}
			return false
		case *ast.CallExpr:
			fun := ast.Unparen(x.Fun)
			consumed[fun] = true
			switch ix := fun.(type) {
			case *ast.IndexExpr: // generic instantiation, or a call through an element
				consumed[ix.X] = true
			case *ast.IndexListExpr:
				consumed[ix.X] = true
			}
			var edges []Edge
			if lit, ok := fun.(*ast.FuncLit); ok {
				edges = []Edge{{Kind: Static, Callee: litNode(lit), Call: x, Pos: fun.Pos()}}
			} else {
				edges = b.callEdges(info, x, fun)
			}
			b.graph.byCall[x] = edges
			for _, e := range edges {
				emit(e)
			}
		case *ast.SelectorExpr:
			consumed[x.Sel] = true
			if !consumed[x] {
				ref(info.Uses[x.Sel], x.Pos())
			}
		case *ast.Ident:
			if !consumed[x] {
				ref(info.Uses[x], x.Pos())
			}
		}
		return true
	})
}

// callEdges resolves one call expression (fun is its unparenthesized
// callee expression) to its edges.
func (b *builder) callEdges(info *types.Info, call *ast.CallExpr, fun ast.Expr) []Edge {
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return nil // conversion
	}
	pos := fun.Pos()
	fn := lint.Callee(info, call)
	switch {
	case fn == nil:
		if id, ok := fun.(*ast.Ident); ok {
			if _, ok := info.Uses[id].(*types.Builtin); ok {
				return nil
			}
		}
		return []Edge{{Kind: Dynamic, Target: types.ExprString(fun), Call: call, Pos: pos}}
	case fn.Type().(*types.Signature).Recv() != nil:
		return b.methodEdges(fn, call, pos)
	case b.byFunc[fn] != nil:
		return []Edge{{Kind: Static, Callee: b.byFunc[fn], Call: call, Pos: pos}}
	}
	return []Edge{{Kind: External, Target: target(fn), Call: call, Pos: pos}}
}

// methodEdges resolves a method call: the declared method for a
// concrete receiver, the implementations for an interface declared in
// the set, an external edge otherwise.
func (b *builder) methodEdges(fn *types.Func, call *ast.CallExpr, pos token.Pos) []Edge {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if !types.IsInterface(recv) {
		if c := b.byFunc[fn]; c != nil {
			return []Edge{{Kind: Method, Callee: c, Call: call, Pos: pos}}
		}
	} else if b.loaded[fn.Pkg()] {
		if impls := b.implementations(fn, recv.Underlying().(*types.Interface)); len(impls) > 0 {
			out := make([]Edge, len(impls))
			for i, c := range impls {
				out[i] = Edge{Kind: Iface, Callee: c, Call: call, Pos: pos}
			}
			return out
		}
	}
	return []Edge{{Kind: External, Target: target(fn), Call: call, Pos: pos}}
}

// implementations returns the graph nodes that an interface method call
// may dispatch to: the method of every loaded named type T for which T
// or *T implements the interface, sorted by ID.
func (b *builder) implementations(fn *types.Func, iface *types.Interface) []*Node {
	if impls, ok := b.dispatch[fn]; ok {
		return impls
	}
	seen := map[*Node]bool{}
	var impls []*Node
	for _, named := range b.named {
		for _, t := range []types.Type{named, types.NewPointer(named)} {
			if !types.Implements(t, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(t, false, fn.Pkg(), fn.Name())
			if m, ok := obj.(*types.Func); ok {
				if c := b.byFunc[m.Origin()]; c != nil && !seen[c] {
					seen[c] = true
					impls = append(impls, c)
				}
			}
			break
		}
	}
	sort.Slice(impls, func(i, j int) bool { return impls[i].ID < impls[j].ID })
	b.dispatch[fn] = impls
	return impls
}

// condense runs Tarjan's algorithm, emitting components in bottom-up
// order (a component is finished only after everything it reaches).
func (b *builder) condense() {
	g := b.graph
	index := map[*Node]int{}
	low := map[*Node]int{}
	onStack := map[*Node]bool{}
	var stack []*Node
	next := 0

	var strong func(n *Node)
	strong = func(n *Node) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, e := range n.Out {
			c := e.Callee
			if c == nil {
				continue
			}
			if _, seen := index[c]; !seen {
				strong(c)
				if low[c] < low[n] {
					low[n] = low[c]
				}
			} else if onStack[c] && index[c] < low[n] {
				low[n] = index[c]
			}
		}
		if low[n] == index[n] {
			var comp []*Node
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				comp = append(comp, m)
				if m == n {
					break
				}
			}
			sort.Slice(comp, func(i, j int) bool { return comp[i].ID < comp[j].ID })
			for _, m := range comp {
				m.SCC = len(g.SCCs)
			}
			g.SCCs = append(g.SCCs, comp)
		}
	}
	for _, n := range g.Order {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}
}

// Dump renders the graph in its golden form: one block per node in
// creation order listing edges, then the non-trivial SCCs bottom-up.
func (g *Graph) Dump() string {
	var sb strings.Builder
	for _, n := range g.Order {
		sb.WriteString(n.ID + "\n")
		for _, e := range n.Out {
			fmt.Fprintf(&sb, "  -> %s %s\n", e.Describe(), e.Kind)
		}
	}
	for _, comp := range g.SCCs {
		if len(comp) < 2 {
			continue
		}
		ids := make([]string, len(comp))
		for i, n := range comp {
			ids[i] = n.ID
		}
		fmt.Fprintf(&sb, "scc [%s]\n", strings.Join(ids, " "))
	}
	return sb.String()
}
