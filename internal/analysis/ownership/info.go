package ownership

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/horse-faas/horse/internal/analysis/callgraph"
	"github.com/horse-faas/horse/internal/analysis/lint"
	"github.com/horse-faas/horse/internal/analysis/summary"
)

// EachCall is one resolved ShardGroup.Each call: the function making
// it and the handler function literals passed to it.
type EachCall struct {
	Caller   *callgraph.Node
	Call     *ast.CallExpr
	Handlers []*callgraph.Node
}

// Info is the resolved phase/ownership picture of one package set,
// computed once and shared by the shardsafe, phaseann, and sharedrand
// analyzers.
type Info struct {
	Graph *callgraph.Graph
	// Sums carries the owned-state may-facts (Reads/Writes/Rands with
	// witness sites) computed under the owned-field table below.
	Sums *summary.Set
	// Owned maps fields to their ownership descriptors, built from
	// every production //horselint:shardlocal / //horselint:coordinator
	// field annotation in the set.
	Owned map[*types.Var]summary.OwnedField

	// Funcs indexes the production function annotations by graph node.
	Funcs map[*callgraph.Node]FuncAnn

	// Handlers are the function literals passed to ShardGroup.Each;
	// EachCalls records each resolved Each call site. Roots lists every
	// shard-phase root — handlers plus shardphase-annotated functions —
	// in deterministic graph order.
	Handlers  map[*callgraph.Node]bool
	EachCalls []EachCall
	Roots     []*callgraph.Node

	// ShardReach and CoordReach are the phase closures over call and
	// closure edges: each reached node maps to the node that first
	// reached it (nil for a phase root), so diagnostics can render the
	// chain from a root.
	ShardReach map[*callgraph.Node]*callgraph.Node
	CoordReach map[*callgraph.Node]*callgraph.Node

	// Participating marks package paths that carry at least one
	// ownership annotation: only they opted into the phase contract, so
	// only their functions can be required to be annotated.
	Participating map[string]bool
}

// Of returns the program's ownership info, built once and memoized.
func Of(prog *lint.Program) *Info {
	return prog.Cached("ownership", func() any {
		return build(prog)
	}).(*Info)
}

func build(prog *lint.Program) *Info {
	g := callgraph.Of(prog)
	info := &Info{
		Graph:         g,
		Owned:         map[*types.Var]summary.OwnedField{},
		Funcs:         map[*callgraph.Node]FuncAnn{},
		Handlers:      map[*callgraph.Node]bool{},
		Participating: map[string]bool{},
	}

	// Resolve the annotation vocabulary from production files. Test
	// files never contribute: phaseann reports annotations there.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			for _, ann := range FuncAnns(f) {
				info.Participating[pkg.Path] = true
				n := g.NodeOf(ann.Func)
				if n == nil {
					continue
				}
				info.Funcs[n] = ann
			}
			for _, ann := range FieldAnns(pkg, f) {
				info.Participating[pkg.Path] = true
				if ann.ShardLocal+ann.Coordinator == 0 {
					continue // a lone shardphase on a field is phaseann's to flag
				}
				for _, v := range ann.Vars {
					info.Owned[v] = summary.OwnedField{
						Key:    ann.TypeName + "." + v.Name(),
						Coord:  ann.Coordinator > 0,
						Stream: StreamType(v.Type()),
					}
				}
			}
		}
	}

	// Find the ShardGroup.Each calls and their handler literals.
	for _, n := range g.Order {
		if n.File.Test {
			continue
		}
		n.Inspect(func(x ast.Node) {
			call, ok := x.(*ast.CallExpr)
			if !ok || !isEachCall(n.Pkg.Info, call) {
				return
			}
			ec := EachCall{Caller: n, Call: call}
			for _, arg := range call.Args {
				lit, ok := arg.(*ast.FuncLit)
				if !ok {
					continue
				}
				if h := g.NodeOf(lit); h != nil {
					ec.Handlers = append(ec.Handlers, h)
					info.Handlers[h] = true
				}
			}
			info.EachCalls = append(info.EachCalls, ec)
		})
	}

	// Phase roots in deterministic graph order: handlers and
	// shardphase-annotated functions for the shard phase.
	var coordRoots []*callgraph.Node
	for _, n := range g.Order {
		if info.Handlers[n] || info.Funcs[n].ShardPhase > 0 {
			info.Roots = append(info.Roots, n)
		}
		if info.Funcs[n].Coordinator > 0 {
			coordRoots = append(coordRoots, n)
		}
	}
	info.ShardReach = reach(info.Roots)
	info.CoordReach = reach(coordRoots)

	info.Sums = summary.Compute(prog, summary.Config{
		AllowAnalyzer: "hotpath",
		Owned:         info.Owned,
		OwnAllow:      "shardsafe",
		RandAllow:     "sharedrand",
	})
	return info
}

// isEachCall reports whether a call invokes a ShardGroup's Each method.
func isEachCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Each" {
		return false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := types.Unalias(recv).(*types.Named)
	return ok && named.Obj().Name() == "ShardGroup"
}

// reach computes the phase closure from the given roots over call and
// closure edges: static, method, and interface calls, and closures (a
// literal defined in a phase runs in it unless handed across a
// barrier, which only happens through dynamic dispatch the walk never
// follows). Test-file callees are skipped — test helpers cannot drag
// production code into a phase.
func reach(roots []*callgraph.Node) map[*callgraph.Node]*callgraph.Node {
	seen := make(map[*callgraph.Node]*callgraph.Node, len(roots))
	queue := make([]*callgraph.Node, 0, len(roots))
	for _, r := range roots {
		if _, ok := seen[r]; ok {
			continue
		}
		seen[r] = nil
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if e.Callee == nil || e.Callee.File.Test || e.Kind == callgraph.Ref {
				continue
			}
			if _, ok := seen[e.Callee]; ok {
				continue
			}
			seen[e.Callee] = n
			queue = append(queue, e.Callee)
		}
	}
	return seen
}

// Chain renders the discovery path from a phase root to n, e.g.
// "pkg.Run -> pkg.serve -> pkg.tally".
func Chain(reached map[*callgraph.Node]*callgraph.Node, n *callgraph.Node) string {
	ids := []string{n.ID}
	for n = reached[n]; n != nil; n = reached[n] {
		ids = append(ids, n.ID)
	}
	for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
		ids[i], ids[j] = ids[j], ids[i]
	}
	return strings.Join(ids, " -> ")
}

// Annotated reports whether a node is phase-annotated code: a handler
// literal, an annotated function, or a literal nested (at any depth)
// inside one.
func (i *Info) Annotated(n *callgraph.Node) bool {
	for n != nil {
		if i.Handlers[n] {
			return true
		}
		if ann, ok := i.Funcs[n]; ok && ann.ShardPhase+ann.Coordinator > 0 {
			return true
		}
		n = n.Parent
	}
	return false
}

// CoordContext reports whether a node is coordinator-annotated code,
// walking literals up to their enclosing declaration. A handler
// literal is shard-phase by construction, whatever encloses it.
func (i *Info) CoordContext(n *callgraph.Node) bool {
	for n != nil {
		if i.Handlers[n] {
			return false
		}
		if ann, ok := i.Funcs[n]; ok {
			return ann.Coordinator > 0
		}
		n = n.Parent
	}
	return false
}
