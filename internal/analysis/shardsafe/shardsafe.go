// Package shardsafe implements the horselint analyzer that enforces
// the state side of the PDES phase/ownership contract (DESIGN.md §9,
// §13): coordinator-owned state — router cursors, run tallies, recorder
// aggregates, arrival sequencing — must be unreachable from shard-phase
// code, and every write to owned state must live in phase-annotated
// code so the contract stays auditable.
//
// Three rules, all interprocedural over the internal/analysis/ownership
// info:
//
//  1. A shard-phase root (a ShardGroup.Each handler literal or a
//     //horselint:shardphase function) must have no transitive read or
//     write of a coordinator-owned field. Witness sites name the access
//     path through the call graph the way hotpath names allocations.
//  2. A //horselint:coordinator function must not be reachable from a
//     shard-phase root; the diagnostic renders the call chain.
//  3. A direct write to any owned field (coordinator or shard-local)
//     must occur inside phase-annotated code: an annotated function, an
//     Each handler, or a literal nested in one.
//
// A cold or provably phase-safe access can be vouched for with a
// reasoned //horselint:allow-shardsafe directive; the summary excludes
// vouched sites from the facts, so the exemption is visible to every
// transitive caller, and CI gates on the allow count.
package shardsafe

import (
	"github.com/horse-faas/horse/internal/analysis/lint"
	"github.com/horse-faas/horse/internal/analysis/ownership"
)

// Default returns the analyzer as wired into cmd/horselint.
func Default() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "shardsafe",
		Doc: "shard-phase code must not touch coordinator-owned state: no read/write of a " +
			"//horselint:coordinator field reachable from a ShardGroup.Each handler or " +
			"//horselint:shardphase function, no //horselint:coordinator function reachable " +
			"from the shard phase, and every owned-field write inside phase-annotated code",
		Run: run,
	}
}

func run(pass *lint.Pass) error {
	if pass.Program == nil {
		return nil
	}
	info := ownership.Of(pass.Program)
	if len(info.Owned) == 0 && len(info.Roots) == 0 {
		return nil
	}

	// Rule 1: coordinator-owned state reachable from a shard root.
	for _, n := range info.Roots {
		if n.Pkg != pass.Pkg {
			continue
		}
		facts := info.Sums.Facts(n)
		name := n.DisplayName()
		for _, site := range facts.Reads {
			pass.Reportf(site.Pos, "shard-phase function %s: %s", name, site.What)
		}
		for _, site := range facts.Writes {
			pass.Reportf(site.Pos, "shard-phase function %s: %s", name, site.What)
		}
	}

	for _, n := range info.Graph.Order {
		if n.Pkg != pass.Pkg || n.File.Test {
			continue
		}

		// Rule 2: a coordinator-only function dragged into the shard
		// phase. A root that is itself coordinator-annotated is a
		// conflicting annotation, which phaseann owns.
		if info.Funcs[n].Coordinator > 0 {
			if info.ShardReach[n] != nil {
				pass.Reportf(n.Decl.Pos(), "coordinator-only function %s is reachable from the shard phase: %s",
					n.DisplayName(), ownership.Chain(info.ShardReach, n))
			}
		}

		// Rule 3: owned-field writes outside phase-annotated code. Only
		// packages that opted into the contract are held to it.
		if !info.Participating[n.Pkg.Path] || info.Annotated(n) {
			continue
		}
		for _, w := range info.Sums.Facts(n).OwnedWrites {
			owner := "shard"
			if w.Coord {
				owner = "coordinator"
			}
			pass.Reportf(w.Pos, "write to %s-owned field %s outside phase-annotated code: annotate the enclosing function //horselint:coordinator or //horselint:shardphase",
				owner, w.Key)
		}
	}
	return nil
}
