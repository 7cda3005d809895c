// Package simclock implements the horselint analyzer that keeps wall
// clocks out of the simulation.
//
// Every headline number in this repository (DESIGN.md §5) is produced on
// the deterministic virtual clock in internal/simtime; a single
// time.Now() or time.Sleep() inside a simulated component silently turns
// a reproducible experiment into a host-dependent one. The analyzer
// forbids the wall-clock APIs of package time inside the simulation
// packages. Conversions and formatting (time.Duration, Duration.String)
// remain legal — simtime itself uses them to print virtual durations.
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

// DefaultSimPackages is the production list of simulation package paths
// the invariant governs. The list must cover every internal package
// whose production code imports internal/simtime — asserted by
// TestSimPackagesCoverSimtimeImporters, so a new simulation package
// cannot silently escape the wall-clock invariant.
var DefaultSimPackages = []string{
	"github.com/horse-faas/horse/internal/simtime",
	"github.com/horse-faas/horse/internal/eventsim",
	"github.com/horse-faas/horse/internal/sched",
	"github.com/horse-faas/horse/internal/vmm",
	"github.com/horse-faas/horse/internal/core",
	"github.com/horse-faas/horse/internal/faas",
	"github.com/horse-faas/horse/internal/faultinject",
	"github.com/horse-faas/horse/internal/runqueue",
	"github.com/horse-faas/horse/internal/dvfs",
	"github.com/horse-faas/horse/internal/pelt",
	"github.com/horse-faas/horse/internal/credit2",
	"github.com/horse-faas/horse/internal/snapshot",
	"github.com/horse-faas/horse/internal/experiments",
	"github.com/horse-faas/horse/internal/telemetry",
	"github.com/horse-faas/horse/internal/metrics",
	"github.com/horse-faas/horse/internal/trace",
	"github.com/horse-faas/horse/internal/workload",
	"github.com/horse-faas/horse/internal/cluster",
	"github.com/horse-faas/horse/internal/loadgen",
	"github.com/horse-faas/horse/internal/trigtrace",
	"github.com/horse-faas/horse/internal/flightrec",
	"github.com/horse-faas/horse/internal/tenant",
}

// Default returns the analyzer configured for this repository.
func Default() *lint.Analyzer { return New(DefaultSimPackages...) }

// New returns a simclock analyzer restricted to packages whose import
// path matches one of the given prefixes.
func New(prefixes ...string) *lint.Analyzer {
	return &lint.Analyzer{
		Name: Name,
		Doc:  "forbids wall-clock time APIs inside simulation packages; virtual time must come from internal/simtime",
		Run: func(pass *lint.Pass) error {
			if !lint.PathMatches(pass.Pkg.Path, prefixes) {
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
