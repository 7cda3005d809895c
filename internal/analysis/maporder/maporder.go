// Package maporder implements the flow-sensitive horselint analyzer
// that keeps Go's randomized map iteration order out of ordered output.
//
// The repository's determinism tests assert byte-identical traces,
// CSVs, and metric exports for a given seed (DESIGN.md §9); a value
// that flows from `range someMap` into an emission call or an ordered
// accumulation re-randomizes that output on every run. The analyzer
// taints the key/value variables of map ranges (and anything assigned
// from them), tracks slices that accumulate tainted values, and
// reports when
//
//   - a tainted value is passed to an emission call (Fprintf/Write/…)
//     or used in a telemetry instrument lookup (Counter, Gauge,
//     Histogram, InstrumentName — a label set minted in map order), or
//   - a slice appended to in map order is returned or handed to a
//     non-sort call before an intervening sort.* / slices.* call.
//
// A sort call on the slice (sort.Strings(names), sort.Slice(out, …),
// slices.Sort(ids)) clears it — the idiom every existing call site in
// this repository already follows. Ranging over a still-unsorted slice
// re-taints its element variables, so laundering map order through an
// intermediate slice does not evade the analyzer.
//
// Map detection is by type: a range operand counts when its underlying
// type is a map, whatever produced it — a local, a field, or a call
// into another package. Compound assignments
// (`sum += v`) deliberately do not propagate taint: order-insensitive
// reductions over a map are the dominant legitimate pattern. Writes
// into other maps are order-insensitive and are not sinks. Test files
// are exempt.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"github.com/horse-faas/horse/internal/analysis/cfg"
	"github.com/horse-faas/horse/internal/analysis/dataflow"
	"github.com/horse-faas/horse/internal/analysis/lint"
)

// Name is the analyzer's directive name: //horselint:allow-maporder.
const Name = "maporder"

// emitCalls are method/function names that put bytes on an output
// stream or rows in a table.
var emitCalls = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Write": true, "WriteString": true, "WriteAll": true, "WriteRow": true,
	"Emit": true,
}

// metricCalls are the telemetry lookups whose label sets must not be
// minted in map order (the §8 catalog's instrument surface).
var metricCalls = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true, "InstrumentName": true,
}

// sortPackages are the import paths whose calls establish a total
// order.
var sortPackages = map[string]bool{"sort": true, "slices": true}

// Default returns the analyzer configured for this repository: all
// packages.
func Default() *lint.Analyzer { return New() }

// New returns a maporder analyzer restricted to packages whose import
// path matches one of the given prefixes (empty: all packages).
func New(prefixes ...string) *lint.Analyzer {
	return &lint.Analyzer{
		Name: Name,
		Doc:  "forbids values derived from map iteration from reaching ordered output (trace/CSV emission, metric label sets, returned slices) without an intervening sort",
		Run: func(pass *lint.Pass) error {
			if len(prefixes) > 0 && !lint.PathMatches(pass.Pkg.Path, prefixes) {
				return nil
			}
			for _, f := range pass.Pkg.Files {
				if f.Test {
					continue
				}
				for _, fn := range cfg.Functions(f.AST) {
					checkFunc(pass, fn)
				}
			}
			return nil
		},
	}
}

// fact is the dataflow state: tainted scalar names and unsorted
// accumulator keys (ExprString of the append target), each with the
// position that introduced them.
type fact struct {
	tainted  map[string]token.Pos
	unsorted map[string]token.Pos
}

func (f fact) clone() fact {
	nf := fact{
		tainted:  make(map[string]token.Pos, len(f.tainted)),
		unsorted: make(map[string]token.Pos, len(f.unsorted)),
	}
	for k, p := range f.tainted {
		nf.tainted[k] = p
	}
	for k, p := range f.unsorted {
		nf.unsorted[k] = p
	}
	return nf
}

type analysis struct {
	fset *token.FileSet
	pkg  *lint.Package
}

// isMap reports whether e's type is a map.
func (a *analysis) isMap(e ast.Expr) bool {
	t := a.pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// sortCall reports whether call is a sort.* or slices.* function.
func (a *analysis) sortCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	path, _ := a.pkg.ImportedMember(sel)
	return sortPackages[path]
}

func (a *analysis) Entry() fact {
	return fact{tainted: map[string]token.Pos{}, unsorted: map[string]token.Pos{}}
}

func (a *analysis) Join(x, y fact) fact {
	if len(y.tainted) == 0 && len(y.unsorted) == 0 {
		return x
	}
	if len(x.tainted) == 0 && len(x.unsorted) == 0 {
		return y
	}
	out := x.clone()
	for k, p := range y.tainted {
		if q, ok := out.tainted[k]; !ok || p < q {
			out.tainted[k] = p
		}
	}
	for k, p := range y.unsorted {
		if q, ok := out.unsorted[k]; !ok || p < q {
			out.unsorted[k] = p
		}
	}
	return out
}

func (a *analysis) Equal(x, y fact) bool {
	return maps.Equal(x.tainted, y.tainted) && maps.Equal(x.unsorted, y.unsorted)
}

func (a *analysis) Transfer(n ast.Node, in fact) fact {
	out := in
	mutated := false
	mutate := func() {
		if !mutated {
			out = out.clone()
			mutated = true
		}
	}

	switch s := n.(type) {
	case *ast.RangeStmt:
		overMap := a.isMap(s.X)
		overUnsorted := false
		if key := exprKey(a.fset, s.X); key != "" {
			_, overUnsorted = in.unsorted[key]
		}
		for _, e := range []ast.Expr{s.Key, s.Value} {
			id, ok := e.(*ast.Ident)
			if !ok || id == nil || id.Name == "_" {
				continue
			}
			mutate()
			if overMap || overUnsorted {
				out.tainted[id.Name] = s.Pos()
			} else {
				delete(out.tainted, id.Name)
			}
		}
		return out

	case *ast.AssignStmt:
		if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
			// Compound assignment: no propagation (order-insensitive
			// reductions are the dominant pattern).
			return out
		}
		// dst = append(dst, …tainted…) accumulates map order.
		if len(s.Rhs) == 1 {
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok && isBuiltinAppend(call) {
				dst := exprKey(a.fset, s.Lhs[len(s.Lhs)-1])
				argTainted := false
				for _, arg := range call.Args[1:] {
					if a.exprTainted(arg, in) {
						argTainted = true
						break
					}
				}
				if dst != "" && argTainted {
					mutate()
					out.unsorted[dst] = s.Pos()
				}
				return out
			}
		}
		rhsTainted := make([]bool, len(s.Rhs))
		for i, r := range s.Rhs {
			rhsTainted[i] = a.exprTainted(r, in)
		}
		for i, l := range s.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			t := false
			if len(s.Rhs) == len(s.Lhs) {
				t = rhsTainted[i]
			} else if len(s.Rhs) == 1 {
				t = rhsTainted[0]
			}
			mutate()
			if t {
				out.tainted[id.Name] = s.Pos()
			} else {
				delete(out.tainted, id.Name)
				delete(out.unsorted, id.Name)
			}
		}
		return out
	}

	// A sort.* / slices.* call clears every argument it orders.
	cfg.Inspect(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if ok && a.sortCall(call) {
			for _, arg := range call.Args {
				if key := exprKey(a.fset, arg); key != "" {
					if _, unsorted := out.unsorted[key]; unsorted {
						mutate()
						delete(out.unsorted, key)
					}
				}
			}
		}
		return true
	})
	return out
}

// exprTainted reports whether e contains a tainted identifier or an
// unsorted accumulator.
func (a *analysis) exprTainted(e ast.Expr, f fact) bool {
	found := false
	cfg.Inspect(e, func(x ast.Node) bool {
		if found {
			return false
		}
		switch v := x.(type) {
		case *ast.Ident:
			if _, ok := f.tainted[v.Name]; ok {
				found = true
			}
		case *ast.SelectorExpr:
			// Do not treat field names as reads of same-named locals.
			if _, ok := f.tainted[v.Sel.Name]; !ok {
				return true
			}
			// Only the selector base can carry local taint.
			if a.exprTainted(v.X, f) {
				found = true
			}
			return false
		}
		if key := exprKey(a.fset, x); key != "" {
			if _, ok := f.unsorted[key]; ok {
				found = true
			}
		}
		return !found
	})
	return found
}

// exprKey returns the stable key for an lvalue-ish expression (ident or
// selector chain), or "" for anything else.
func exprKey(fset *token.FileSet, n ast.Node) string {
	switch e := n.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := exprKey(fset, e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	}
	return ""
}

func isBuiltinAppend(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append" && len(call.Args) > 0
}

// neutralCalls may receive an unsorted slice without fixing or leaking
// its order.
var neutralCalls = map[string]bool{
	"append": true, "len": true, "cap": true, "copy": true, "delete": true,
	"make": true, "new": true,
}

func checkFunc(pass *lint.Pass, fn cfg.NamedFunc) {
	g := cfg.Build(fn.Name, fn.Node)
	a := &analysis{fset: pass.Fset, pkg: pass.Pkg}
	in := dataflow.Forward[fact](g, a)
	dataflow.Replay[fact](g, a, in, func(n ast.Node, before fact) {
		a.report(pass, n, before)
	})
}

func (a *analysis) report(pass *lint.Pass, n ast.Node, before fact) {
	if len(before.tainted) == 0 && len(before.unsorted) == 0 {
		return
	}
	// Returning an unsorted accumulator leaks map order to the caller.
	if ret, ok := n.(*ast.ReturnStmt); ok {
		for _, r := range ret.Results {
			if key := exprKey(a.fset, r); key != "" {
				if pos, ok := before.unsorted[key]; ok {
					pass.Reportf(r.Pos(),
						"slice %s accumulates map-range values (append at line %d) and is returned without a sort; map iteration order is nondeterministic",
						key, pass.Fset.Position(pos).Line)
				}
			}
		}
		return
	}
	cfg.Inspect(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := callName(call)
		if name == "" || neutralCalls[name] || a.sortCall(call) {
			return true
		}
		emitting := emitCalls[name]
		metric := metricCalls[name]
		for _, arg := range call.Args {
			if key := exprKey(a.fset, arg); key != "" {
				if pos, ok := before.unsorted[key]; ok {
					pass.Reportf(arg.Pos(),
						"slice %s accumulates map-range values (append at line %d) and is passed to %s without a sort; map iteration order is nondeterministic",
						key, pass.Fset.Position(pos).Line, name)
					continue
				}
			}
			if (emitting || metric) && a.exprTainted(arg, before) {
				kind := "ordered output"
				if metric {
					kind = "a telemetry instrument lookup"
				}
				pass.Reportf(arg.Pos(),
					"value derived from map iteration flows into %s via %s; sort the keys first (map iteration order is nondeterministic)",
					kind, name)
			}
		}
		return true
	})
}

// callName returns a call's method or function name.
func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
