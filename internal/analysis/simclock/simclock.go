// Package simclock implements the horselint analyzer that keeps wall
// clocks out of the simulation.
//
// Every headline number in this repository (DESIGN.md §5) is produced on
// the deterministic virtual clock in internal/simtime; a single
// time.Now() or time.Sleep() inside a simulated component silently turns
// a reproducible experiment into a host-dependent one. The analyzer
// forbids the wall-clock APIs of package time inside the simulation
// packages: every package under internal/ except the analysis tree and
// internal/testutil. Conversions and formatting (time.Duration,
// Duration.String) remain legal — simtime itself uses them to print
// virtual durations.
//
// Legitimate wall-clock uses (real micro-benchmarks, test harness
// plumbing) opt out per line with
//
//	//horselint:allow-wallclock <reason>
//
// where the reason is mandatory. Test files (_test.go) are exempt:
// benchmarks measure real time by design.
package simclock

import (
	"go/ast"
	"strings"

	"github.com/horse-faas/horse/internal/analysis/lint"
)

// Name is the analyzer's directive name: //horselint:allow-wallclock.
const Name = "wallclock"

// forbidden lists the package-time members that read or wait on the
// host's clock.
var forbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Default returns the analyzer configured for this repository.
func Default() *lint.Analyzer {
	return &lint.Analyzer{
		Name: Name,
		Doc:  "forbids wall-clock time APIs inside simulation packages; virtual time must come from internal/simtime",
		Run: func(pass *lint.Pass) error {
			if !governs(pass.Pkg.Path) {
				return nil
			}
			for _, f := range pass.Pkg.Files {
				if f.Test {
					continue
				}
				checkFile(pass, f)
			}
			return nil
		},
	}
}

// governs reports whether a package is a simulation package: it lies
// under an internal/ directory, and not in the analysis tree (tooling
// that never runs on the virtual clock) or internal/testutil (test
// harness plumbing). A new internal package is governed without any
// list to edit.
func governs(pkgPath string) bool {
	_, rest, ok := strings.Cut("/"+pkgPath, "/internal/")
	return ok && !lint.PathMatches(rest, []string{"analysis", "testutil"})
}

func checkFile(pass *lint.Pass, f *lint.File) {
	ast.Inspect(f.AST, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if path, name := pass.Pkg.ImportedMember(sel); path == "time" && forbidden[name] {
			pass.Reportf(sel.Pos(),
				"wall-clock time.%s in simulation package %s; use the virtual clock (internal/simtime) or annotate //horselint:allow-wallclock <reason>",
				name, pass.Pkg.Path)
		}
		return true
	})
}
