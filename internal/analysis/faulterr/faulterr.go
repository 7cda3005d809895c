// Package faulterr implements the flow-sensitive horselint analyzer
// that keeps fault-injectable errors from being dropped.
//
// Every site the fault injector (internal/faultinject, DESIGN.md §10)
// can fire at — sandbox create/destroy, pause/resume entry, restore and
// invoke hooks — surfaces as the error result of a small set of calls.
// The keep-alive reaper's first bug was exactly a dropped one: a
// mid-sweep destroy error silently discarded left the pool
// inconsistent. The analyzer tracks
// the error result of each monitored call through the CFG and reports
// when, on at least one path, it reaches neither a check (any read: a
// condition, a wrap, an argument, a return) nor the function's caller —
// including the half-checked branch shape (`if ok { check(err) }`) a
// token-level lint cannot see.
//
// Three shapes are reported:
//
//   - a discarded result: a bare statement call, `_ =`, a trailing
//     blank in a tuple assignment, or a deferred/`go` call;
//   - an overwrite: the variable is reassigned while a previous
//     monitored error may still be unread;
//   - a leak: some path reaches function exit with the error unread.
//     Reads inside the function's defer statements count — checking in
//     a deferred closure is a legitimate pattern.
//
// Variables are tracked by their types.Var, so a shadowed `err` in a
// nested scope is a variable of its own. Test files are exempt,
// matching the suite.
//
// The monitored set is extended interprocedurally: using the bottom-up
// summaries in internal/analysis/summary, every function in the
// package set whose error result may carry a seed call's error
// (ReturnsSeedErr) is monitored too, so wrapping Trigger in a helper
// and then dropping the helper's error is still a finding. The helpers
// are matched by declaration, not by name.
package faulterr

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"

	"github.com/horse-faas/horse/internal/analysis/cfg"
	"github.com/horse-faas/horse/internal/analysis/dataflow"
	"github.com/horse-faas/horse/internal/analysis/lint"
	"github.com/horse-faas/horse/internal/analysis/summary"
)

// Name is the analyzer's directive name: //horselint:allow-faulterr.
const Name = "faulterr"

// seeds lists the monitored method names, sorted: every call whose
// error result is a fault-injection site or sits directly on the
// trigger path's failure surface.
var seeds = []string{
	"BeginPause",
	"BeginResume",
	"Check",
	"CreateSandbox",
	"DestroySandbox",
	"Finish",
	"Pause",
	"RemoveVCPUs",
	"Restore",
	"Resume",
	"Trigger",
}

// Default returns the analyzer configured for this repository: every
// package, the monitored calls above.
func Default() *lint.Analyzer {
	return &lint.Analyzer{
		Name: Name,
		Doc:  "requires the error result of fault-injectable calls (create/destroy/pause/resume/restore/invoke sites) to reach a check or a return on every control-flow path",
		Run: func(pass *lint.Pass) error {
			derived := derivedMonitored(pass.Program)
			for _, f := range pass.Pkg.Files {
				if f.Test {
					continue
				}
				for _, fn := range cfg.Functions(f.AST) {
					checkFunc(pass, fn, derived)
				}
			}
			return nil
		},
	}
}

// derivedMonitored returns every function in the program, other than
// the monitored methods themselves, whose error result may carry a seed
// call's error, per the interprocedural summaries.
func derivedMonitored(prog *lint.Program) map[*types.Func]bool {
	if prog == nil {
		return nil
	}
	sums := summary.Compute(prog, summary.Config{ErrorSeeds: seeds, AllowAnalyzer: Name})
	derived := map[*types.Func]bool{}
	for _, n := range sums.Graph.Order {
		if n.Func != nil && !slices.Contains(seeds, n.Name) && sums.Facts(n).ReturnsSeedErr {
			derived[n.Func] = true
		}
	}
	return derived
}

// def records one tracked, not-yet-read error binding.
type def struct {
	Call string
	Pos  token.Pos
}

// facts maps each variable holding a monitored error that may still be
// unread to its pending definition.
type facts map[*types.Var]def

type analysis struct {
	info *types.Info
	// derived are summary-derived monitored functions: their error
	// result may carry a seed error.
	derived map[*types.Func]bool
}

func (a analysis) Entry() facts { return facts{} }

func (a analysis) Join(x, y facts) facts {
	if len(y) == 0 {
		return x
	}
	if len(x) == 0 {
		return y
	}
	out := make(facts, len(x)+len(y))
	for k, d := range x {
		out[k] = d
	}
	for k, d := range y {
		if e, ok := out[k]; !ok || d.Pos < e.Pos {
			out[k] = d
		}
	}
	return out
}

func (a analysis) Equal(x, y facts) bool { return maps.Equal(x, y) }

func (a analysis) Transfer(n ast.Node, in facts) facts {
	out := in
	mutated := false
	mutate := func() {
		if !mutated {
			cp := make(facts, len(out))
			for k, d := range out {
				cp[k] = d
			}
			out = cp
			mutated = true
		}
	}
	for v := range a.reads(n) {
		if _, ok := out[v]; ok {
			mutate()
			delete(out, v)
		}
	}
	for _, v := range a.assignTargets(n) {
		if _, ok := out[v]; ok {
			mutate()
			delete(out, v)
		}
	}
	if v, call, pos := a.monitoredDef(n); v != nil {
		mutate()
		out[v] = def{Call: call, Pos: pos}
	}
	return out
}

// varOf returns the variable an identifier declares or denotes (nil
// for the blank identifier and non-variables).
func (a analysis) varOf(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	v, _ := a.info.ObjectOf(id).(*types.Var)
	return v
}

// monitoredDef returns the variable bound to a monitored call's error
// result by n, or nil if n binds none.
func (a analysis) monitoredDef(n ast.Node) (v *types.Var, call string, pos token.Pos) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if c := a.monitoredCall(s.Rhs[0]); c != "" {
				if v := a.varOf(s.Lhs[len(s.Lhs)-1]); v != nil {
					return v, c, s.Pos()
				}
			}
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return nil, "", token.NoPos
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) != 1 {
				continue
			}
			if c := a.monitoredCall(vs.Values[0]); c != "" {
				if v := a.varOf(vs.Names[len(vs.Names)-1]); v != nil {
					return v, c, s.Pos()
				}
			}
		}
	}
	return nil, "", token.NoPos
}

// monitoredCall returns the monitored call's name if e is a direct call
// to one, else "": a method named in the monitored set, or a
// summary-derived function or method.
func (a analysis) monitoredCall(e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	if fn := lint.Callee(a.info, call); fn != nil && a.derived[fn] {
		return fn.Name()
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && slices.Contains(seeds, sel.Sel.Name) {
		return sel.Sel.Name
	}
	return ""
}

// discarded returns the monitored call whose error result n throws
// away without binding it to a variable, or "".
func (a analysis) discarded(n ast.Node) (call string, pos token.Pos) {
	switch s := n.(type) {
	case *ast.CallExpr: // statement-level bare call
		return a.monitoredCall(s), s.Pos()
	case *ast.DeferStmt:
		return a.monitoredCall(s.Call), s.Pos()
	case *ast.GoStmt:
		return a.monitoredCall(s.Call), s.Pos()
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 && a.varOf(s.Lhs[len(s.Lhs)-1]) == nil {
			return a.monitoredCall(s.Rhs[0]), s.Pos()
		}
	}
	return "", token.NoPos
}

// assignTargets returns the variables n writes (assignment LHS,
// var-spec names, range key/value): a write that is not itself a
// monitored def ends tracking of the previous value.
func (a analysis) assignTargets(n ast.Node) []*types.Var {
	var out []*types.Var
	add := func(e ast.Expr) {
		if v := a.varOf(e); v != nil {
			out = append(out, v)
		}
	}
	switch s := n.(type) {
	case *ast.AssignStmt:
		for _, l := range s.Lhs {
			add(l)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, id := range vs.Names {
						add(id)
					}
				}
			}
		}
	case *ast.RangeStmt:
		if s.Key != nil {
			add(s.Key)
		}
		if s.Value != nil {
			add(s.Value)
		}
	}
	return out
}

// reads collects the variables n reads. Declarations are not uses, and
// assignment and range targets are writes; everything else —
// conditions, call arguments, return values, composite literal
// elements — counts as a read.
func (a analysis) reads(n ast.Node) map[*types.Var]bool {
	written := map[ast.Expr]bool{}
	switch s := n.(type) {
	case *ast.AssignStmt:
		for _, l := range s.Lhs {
			written[l] = true
		}
	case *ast.RangeStmt:
		written[s.Key] = true
		written[s.Value] = true
	}
	reads := map[*types.Var]bool{}
	cfg.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && !written[id] {
			if v, ok := a.info.Uses[id].(*types.Var); ok {
				reads[v] = true
			}
		}
		return true
	})
	return reads
}

func checkFunc(pass *lint.Pass, fn cfg.NamedFunc, derived map[*types.Func]bool) {
	g := cfg.Build(fn.Name, fn.Node)
	a := analysis{info: pass.Pkg.Info, derived: derived}
	in := dataflow.Forward[facts](g, a)

	// Variables read anywhere inside a defer statement (closure bodies
	// included) count as checked at exit.
	deferReads := map[*types.Var]bool{}
	for _, d := range g.Defers {
		ast.Inspect(d, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok {
				if v, ok := a.info.Uses[id].(*types.Var); ok {
					deferReads[v] = true
				}
			}
			return true
		})
	}

	dataflow.Replay[facts](g, a, in, func(n ast.Node, before facts) {
		if call, pos := a.discarded(n); call != "" {
			pass.Reportf(pos, "error result of %s is discarded; a fault-injectable site's error must reach a check or a return", call)
		}
		// Overwrite of a still-unread tracked error.
		reads := a.reads(n)
		for _, v := range a.assignTargets(n) {
			if d, ok := before[v]; ok && !reads[v] {
				pass.Reportf(d.Pos,
					"error from %s bound to %q is overwritten before being checked (reassigned at line %d)",
					d.Call, v.Name(), pass.Fset.Position(n.Pos()).Line)
			}
		}
	})

	exit, ok := dataflow.ExitFact[facts](g, in)
	if !ok {
		return
	}
	for v, d := range exit {
		if !deferReads[v] {
			pass.Reportf(d.Pos,
				"error from %s bound to %q does not reach a check or a return on every path", d.Call, v.Name())
		}
	}
}
