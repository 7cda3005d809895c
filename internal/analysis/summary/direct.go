package summary

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/horse-faas/horse/internal/analysis/callgraph"
	"github.com/horse-faas/horse/internal/analysis/lint"
)

// Lock and clock call names, matching the lockcharge analyzer's
// repo-local vocabulary.
var (
	lockNames  = map[string]bool{"Lock": true, "RLock": true}
	clockNames = map[string]bool{"Charge": true, "Advance": true}
)

// cleanExternals lists external call targets known not to allocate.
// Everything external and not listed is conservatively assumed to
// allocate. Targets use the callgraph's textual form; entries ending in
// "." are prefixes.
var cleanExternals = []string{
	"sync/atomic.",
	"sync.(Mutex).Lock",
	"sync.(Mutex).Unlock",
	"sync.(Mutex).TryLock",
	"sync.(RWMutex).Lock",
	"sync.(RWMutex).Unlock",
	"sync.(RWMutex).RLock",
	"sync.(RWMutex).RUnlock",
	"sync.(RWMutex).TryLock",
	"sync.(WaitGroup).Add",
	"sync.(WaitGroup).Done",
	"sync.(WaitGroup).Wait",
	"math.",
	"errors.Is",
	"errors.As",
	"sort.Search",
	"sort.SearchInts",
	"strings.Compare",
	"strings.HasPrefix",
	"strings.HasSuffix",
	"strings.IndexByte",
	"strings.Contains",
	"bytes.Equal",
}

// externalClean reports whether an external target is known not to
// allocate.
func externalClean(target string) bool {
	for _, c := range cleanExternals {
		if strings.HasSuffix(c, ".") {
			if strings.HasPrefix(target, c) {
				return true
			}
		} else if target == c {
			return true
		}
	}
	return false
}

// direct computes the intraprocedural (pre-fixpoint) facts of one
// function.
type direct struct {
	prog  *lint.Program
	cfg   Config
	seeds map[string]bool
}

// allowedBy reports whether a reasoned allow-<analyzer> directive
// covers pos (never for an empty analyzer name). An allowed site is
// excluded from the facts entirely, so it cannot poison the verdict of
// transitive callers.
func (d *direct) allowedBy(analyzer string, pos token.Pos) bool {
	return analyzer != "" && d.prog.Allowed(analyzer, lint.Fset().Position(pos))
}

func (d *direct) compute(n *callgraph.Node) *Facts {
	f := &Facts{hasErrorResult: hasErrorResult(n.Signature())}
	info := n.Pkg.Info

	add := func(pos token.Pos, format string, args ...any) {
		if d.allowedBy(d.cfg.AllowAnalyzer, pos) {
			return
		}
		f.Allocs = append(f.Allocs, Site{Pos: pos, What: fmt.Sprintf(format, args...)})
	}

	// Walk the body shallowly: nested function literals are their own
	// graph nodes and their facts flow back through closure edges.
	n.Inspect(func(x ast.Node) {
		switch v := x.(type) {
		case *ast.GoStmt:
			add(v.Pos(), "go statement allocates a goroutine")
		case *ast.CallExpr:
			d.call(n, f, v, add)
		case *ast.CompositeLit:
			switch info.TypeOf(v).Underlying().(type) {
			case *types.Slice:
				add(v.Pos(), "slice literal allocates")
			case *types.Map:
				add(v.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if _, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
					add(v.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if tv := info.Types[v]; v.Op == token.ADD && tv.Value == nil && isString(tv.Type) {
				add(v.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if v.Tok == token.ADD_ASSIGN && isString(info.TypeOf(v.Lhs[0])) {
				add(v.Pos(), "string concatenation allocates")
			}
		}
	})

	// Edge-level facts: external calls, closures, method values.
	for _, e := range n.Out {
		switch e.Kind {
		case callgraph.External:
			if !externalClean(e.Target) {
				add(e.Pos, "call to %s (outside the package set) is assumed to allocate", e.Target)
			}
		case callgraph.Dynamic:
			add(e.Pos, "dynamic call through %q cannot be resolved; assumed to allocate", e.Target)
		case callgraph.Closure:
			add(e.Pos, "function literal allocates a closure")
		case callgraph.Ref:
			if e.Callee.Recv != "" {
				add(e.Pos, "method value %s allocates a closure", e.Callee.ID)
			}
		}
	}

	f.Allocates = len(f.Allocs) > 0
	if f.Allocates {
		f.AllocWhy = f.Allocs[0].What
	}
	return f
}

// call handles one call expression's facts: lock and clock selectors
// and seed calls (by name, the repository's vocabulary), allocating
// builtins and conversions, and interface boxing of arguments into
// empty-interface parameters of a uniquely resolved callee.
func (d *direct) call(n *callgraph.Node, f *Facts, call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	info := n.Pkg.Info
	fun := ast.Unparen(call.Fun)
	var name string
	switch fun := fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		if lockNames[name] && len(call.Args) == 0 {
			f.AcquiresLock = true
		}
		if clockNames[name] {
			f.ChargesClock = true
			if f.ClockWhy == "" {
				f.ClockWhy = name + " call"
			}
		}
	}
	if d.seeds[name] {
		f.directSeed = true
	}

	if tv := info.Types[fun]; tv.IsType() {
		if len(call.Args) == 1 && allocatingConversion(tv.Type, info.Types[call.Args[0]]) {
			add(call.Pos(), "conversion to %s allocates", tv.Type)
		}
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			switch name {
			case "make":
				add(call.Pos(), "make allocates; hot paths must reuse preallocated state")
			case "new":
				add(call.Pos(), "new allocates")
			case "append":
				add(call.Pos(), "append may grow its backing array")
			case "panic":
				add(call.Pos(), "panic allocates and boxes its argument")
			}
			return
		}
	}

	// Interface boxing: a concrete argument flowing into an empty
	// interface parameter of a uniquely resolved callee in the set.
	edges := callgraph.Of(d.prog).EdgesAt(call)
	if len(edges) != 1 || edges[0].Callee == nil {
		return
	}
	sig := edges[0].Callee.Signature()
	params := sig.Params()
	for i, arg := range call.Args {
		if params.Len() == 0 {
			break
		}
		pt := params.At(min(i, params.Len()-1)).Type()
		if sig.Variadic() && i >= params.Len()-1 && !call.Ellipsis.IsValid() {
			pt = pt.(*types.Slice).Elem()
		}
		if isEmptyInterface(pt) && !types.IsInterface(info.TypeOf(arg)) {
			add(arg.Pos(), "argument is boxed into an interface parameter of %s", edges[0].Callee.ID)
			return
		}
	}
}

// allocatingConversion reports whether converting a value of type
// from.Type to type to builds a fresh allocation: a string from
// anything but a string, or a byte or rune slice from a string.
// Constant operands fold at compile time.
func allocatingConversion(to types.Type, from types.TypeAndValue) bool {
	if from.Value != nil || from.Type == nil {
		return false
	}
	_, toSlice := to.Underlying().(*types.Slice)
	return (isString(to) && !isString(from.Type)) || (toSlice && isString(from.Type))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isEmptyInterface(t types.Type) bool {
	it, ok := t.Underlying().(*types.Interface)
	return ok && it.Empty()
}

// hasErrorResult reports whether the signature's last result is error.
func hasErrorResult(sig *types.Signature) bool {
	if sig == nil || sig.Results().Len() == 0 {
		return false
	}
	return types.Identical(sig.Results().At(sig.Results().Len()-1).Type(), errorType)
}

var errorType = types.Universe.Lookup("error").Type()
