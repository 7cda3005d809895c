// Package sharedrand implements the horselint analyzer that keeps
// randomness deterministic, both site by site and across the PDES
// shard barrier.
//
// Site rule: the repository's experiments promise same-seed ⇒
// same-percentiles (DESIGN.md §5.4, the determinism regression tests in
// internal/trace and internal/experiments). The global math/rand
// functions draw from a process-wide source whose sequence depends on
// everything else that touched it, so production code anywhere in the
// module may not name them. Randomness must flow from a *rand.Rand
// constructed with an explicit seed and plumbed through constructors or
// config, the way trace.Synthesize and workload.NewScan do. Seeding a
// source from the wall clock (rand.NewSource(time.Now().UnixNano()))
// defeats the point and is flagged too. Test files are exempt.
//
// Shard rule: every PRNG or fault stream a shard-phase function can
// reach must flow from Injector.Derive (or a per-node seed mix), never
// from the coordinator's shared stream or the process-global stream.
// The analyzer follows the call graph from every ShardGroup.Each
// handler and //horselint:shardphase function and reports any path to a
// coordinator-shared stream, with witness sites the way hotpath names
// allocations. A stream field counts as coordinator-shared when its
// ownership annotation says //horselint:coordinator and its type names a
// stream (Injector, Rand, Source, PCG, ChaCha8). Re-keying through
// .Derive on the field is the sanctioned consumption and is exempt.
//
// A reasoned //horselint:allow-sharedrand directive vouches for a site;
// vouched sites are excluded from caller-visible facts, and CI gates on
// the allow count.
package sharedrand

import (
	"go/ast"

	"github.com/horse-faas/horse/internal/analysis/lint"
	"github.com/horse-faas/horse/internal/analysis/ownership"
	"github.com/horse-faas/horse/internal/analysis/summary"
)

// Default returns the analyzer as wired into cmd/horselint.
func Default() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "sharedrand",
		Doc: "production code may not use the global math/rand functions or seed a source from " +
			"the wall clock, and shard-phase code must draw randomness only from per-node derived " +
			"streams: no coordinator-owned Injector/Rand stream may be reachable from a " +
			"ShardGroup.Each handler or //horselint:shardphase function",
		Run: run,
	}
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Pkg.Files {
		if !f.Test {
			checkSites(pass, f)
		}
	}
	if pass.Program == nil {
		return nil
	}
	info := ownership.Of(pass.Program)
	for _, n := range info.Roots {
		if n.Pkg != pass.Pkg {
			continue
		}
		for _, site := range info.Sums.Facts(n).Rands {
			pass.Reportf(site.Pos, "shard-phase function %s: %s", n.DisplayName(), site.What)
		}
	}
	return nil
}

// checkSites applies the site rule to one production file.
func checkSites(pass *lint.Pass, f *lint.File) {
	ast.Inspect(f.AST, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if summary.GlobalRandDraw(pass.Pkg, x) {
				pass.Reportf(x.Pos(),
					"global rand.%s draws from the shared process-wide source; construct a seeded *rand.Rand and plumb it through the config (same seed must reproduce the same percentiles)",
					x.Sel.Name)
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, name := pass.Pkg.ImportedMember(sel)
			if (path == "math/rand" || path == "math/rand/v2") && (name == "NewSource" || name == "NewPCG") && readsWallClock(pass.Pkg, x.Args) {
				pass.Reportf(sel.Pos(),
					"rand.%s seeded from the wall clock; thread an explicit seed through the config so runs are reproducible",
					name)
			}
		}
		return true
	})
}

// readsWallClock reports whether any expression references a member of
// package time (time.Now and friends).
func readsWallClock(pkg *lint.Package, args []ast.Expr) bool {
	found := false
	for _, arg := range args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if path, _ := pkg.ImportedMember(sel); path == "time" {
					found = true
				}
			}
			return !found
		})
	}
	return found
}
