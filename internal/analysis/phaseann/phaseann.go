// Package phaseann implements horselint's annotation-hygiene pass. It
// keeps both directive vocabularies honest, so the annotated sets the
// other analyzers enforce are exactly the sets a reader can grep.
//
// Hot path (DESIGN.md §9): each //horselint:hotpath directive must sit
// in the doc comment of exactly one production function declaration.
// Stray directives (attached to nothing), directives in _test.go
// files, and duplicates on one function annotate nothing and are
// reported.
//
// Ownership: the //horselint:shardphase, //horselint:coordinator, and
// //horselint:shardlocal directives must be well-formed, unique,
// attached to production declarations, and — the load-bearing part —
// closed over the actual ShardGroup.Each handler set. A function that
// shard-phase reachability discovers without an annotation is an
// error, not a silent merge: the author must decide which phase it
// belongs to. The pass also pins the barrier discipline: only a
// coordinator function may call Each, and every function-typed
// argument must be a function literal so the root set stays closed.
package phaseann

import (
	"go/ast"
	"go/types"

	"github.com/horse-faas/horse/internal/analysis/hotpath"
	"github.com/horse-faas/horse/internal/analysis/lint"
	"github.com/horse-faas/horse/internal/analysis/ownership"
)

// Default returns the analyzer as wired into cmd/horselint.
func Default() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "phaseann",
		Doc: "hotpath and ownership annotations must be well-formed, unique, and on production " +
			"declarations; ownership annotations must be closed over the ShardGroup.Each handler " +
			"set: an unannotated function reachable from the shard phase (or both phases) is an " +
			"error, and Each may only be called by a //horselint:coordinator function",
		Run: run,
	}
}

func run(pass *lint.Pass) error {
	if pass.Program == nil {
		return nil
	}
	info := ownership.Of(pass.Program)

	for _, f := range pass.Pkg.Files {
		for _, c := range hotpath.Strays(f) {
			pass.Reportf(c.Pos(), "stray %s directive: it must be part of a function declaration's doc comment", hotpath.Directive)
		}
		for _, ann := range hotpath.Annotations(f) {
			switch {
			case f.Test:
				pass.Reportf(ann.Func.Pos(), "%s on %s: hot-path annotations belong in production code, not _test.go files", hotpath.Directive, ann.DisplayName())
			case ann.Count > 1:
				pass.Reportf(ann.Func.Pos(), "duplicate %s directives on %s", hotpath.Directive, ann.DisplayName())
			}
		}
		for _, c := range ownership.Strays(f) {
			pass.Reportf(c.Pos(), "ownership directive annotates nothing: attach it to a function's doc comment, a struct field, or a struct type declaration")
		}
		for _, ann := range ownership.FuncAnns(f) {
			if f.Test {
				pass.Reportf(ann.Func.Pos(), "ownership annotation on %s: annotations belong on production declarations, not test files", ann.DisplayName())
				continue
			}
			if ann.ShardLocal > 0 {
				pass.Reportf(ann.Func.Pos(), "%s: shardlocal annotates state, not functions; use //horselint:shardphase or //horselint:coordinator", ann.DisplayName())
			}
			if ann.ShardPhase > 0 && ann.Coordinator > 0 {
				pass.Reportf(ann.Func.Pos(), "%s is annotated both //horselint:shardphase and //horselint:coordinator: a function belongs to one phase", ann.DisplayName())
			}
			if ann.ShardPhase > 1 || ann.Coordinator > 1 || ann.ShardLocal > 1 {
				pass.Reportf(ann.Func.Pos(), "%s: duplicated ownership directive", ann.DisplayName())
			}
		}
		for _, ann := range ownership.FieldAnns(pass.Pkg, f) {
			if f.Test {
				pass.Reportf(ann.Field.Pos(), "ownership annotation on field %s: annotations belong on production declarations, not test files", ann.Key())
				continue
			}
			if ann.ShardPhase > 0 {
				pass.Reportf(ann.Field.Pos(), "field %s: shardphase annotates functions, not state; use //horselint:shardlocal or //horselint:coordinator", ann.Key())
			}
			if ann.ShardLocal > 0 && ann.Coordinator > 0 {
				pass.Reportf(ann.Field.Pos(), "field %s is annotated both //horselint:shardlocal and //horselint:coordinator: state has one owner", ann.Key())
			}
			if !ann.FromType && (ann.ShardLocal > 1 || ann.Coordinator > 1 || ann.ShardPhase > 1) {
				pass.Reportf(ann.Field.Pos(), "field %s: duplicated ownership directive", ann.Key())
			}
		}
	}

	// Closure over the handler set: every production function the shard
	// phase reaches in a participating package must say which phase it
	// belongs to.
	for _, n := range info.Graph.Order {
		// Literals (no Func) inherit their parent's phase.
		if n.Pkg != pass.Pkg || n.File.Test || !info.Participating[n.Pkg.Path] || n.Func == nil {
			continue
		}
		if _, annotated := info.Funcs[n]; annotated || info.ShardReach[n] == nil {
			continue
		}
		if _, both := info.CoordReach[n]; both {
			pass.Reportf(n.Decl.Pos(), "%s is reachable from both the shard phase and the coordinator phase but carries no annotation; decide its phase (//horselint:shardphase or //horselint:coordinator) instead of merging them silently: %s",
				n.DisplayName(), ownership.Chain(info.ShardReach, n))
		} else {
			pass.Reportf(n.Decl.Pos(), "%s is reachable from the shard phase but not annotated //horselint:shardphase: %s",
				n.DisplayName(), ownership.Chain(info.ShardReach, n))
		}
	}

	// Barrier discipline: only the coordinator erects a serve barrier,
	// and the handler set must be syntactically closed.
	for _, ec := range info.EachCalls {
		if ec.Caller.Pkg != pass.Pkg {
			continue
		}
		if !info.CoordContext(ec.Caller) {
			pass.Reportf(ec.Call.Pos(), "ShardGroup.Each erects a serve barrier; only a //horselint:coordinator function may call it (caller %s)", ec.Caller.DisplayName())
		}
		if len(ec.Handlers) != funcArgs(pass.Pkg.Info, ec.Call) {
			pass.Reportf(ec.Call.Pos(), "ShardGroup.Each handler must be a function literal so the shard-phase root set stays closed")
		}
	}
	return nil
}

// funcArgs counts a call's function-typed arguments: the handlers, as
// opposed to data such as Each's busy set.
func funcArgs(info *types.Info, call *ast.CallExpr) int {
	n := 0
	for _, arg := range call.Args {
		if t := info.TypeOf(arg); t != nil {
			if _, ok := t.Underlying().(*types.Signature); ok {
				n++
			}
		}
	}
	return n
}
