// Package allocpin keeps the static and the dynamic views of the hot
// path in agreement: every function annotated //horselint:hotpath must
// be covered by a testing.AllocsPerRun pin in its own package's tests.
// The hotpath analyzer proves the function allocation-free by
// interprocedural summary; the pin measures it (the repo convention is
// to assert the result is exactly 0). A function with a static verdict
// but no measurement — or vice versa — is exactly how the two drift
// apart, so the analyzer reports annotated functions that are never
// called inside an AllocsPerRun function literal in the package's
// _test.go files. The call must resolve to the annotated function or
// method itself: a same-named method of another type does not count.
package allocpin

import (
	"go/ast"
	"go/types"

	"github.com/horse-faas/horse/internal/analysis/hotpath"
	"github.com/horse-faas/horse/internal/analysis/lint"
)

// Default returns the analyzer as wired into cmd/horselint.
func Default() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "allocpin",
		Doc: "every //horselint:hotpath function needs a testing.AllocsPerRun pin in its " +
			"package's tests, so static verdict and measured allocation count stay in sync",
		Run: run,
	}
}

func run(pass *lint.Pass) error {
	pinned := map[*types.Func]bool{}
	for _, f := range pass.Pkg.Files {
		if f.Test {
			collectPins(pass.Pkg, f, pinned)
		}
	}
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		for _, ann := range hotpath.Annotations(f) {
			if fn, _ := pass.Pkg.Info.Defs[ann.Func.Name].(*types.Func); !pinned[fn] {
				pass.Reportf(ann.Func.Pos(),
					"hot-path function %s has no testing.AllocsPerRun pin in this package's tests",
					ann.DisplayName())
			}
		}
	}
	return nil
}

// collectPins records every function and method called inside an
// AllocsPerRun function-literal argument of the file.
func collectPins(pkg *lint.Package, f *lint.File, pinned map[*types.Func]bool) {
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if path, name := pkg.ImportedMember(sel); path != "testing" || name != "AllocsPerRun" {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			ast.Inspect(lit, func(m ast.Node) bool {
				if inner, ok := m.(*ast.CallExpr); ok {
					if fn := lint.Callee(pkg.Info, inner); fn != nil {
						pinned[fn] = true
					}
				}
				return true
			})
		}
		return true
	})
}
