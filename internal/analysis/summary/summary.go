// Package summary computes per-function facts over a call graph by a
// bottom-up fixpoint on its SCC condensation: may-allocate (with a
// witness), may-acquire a lock, may-charge the simulated clock, and
// fault-error propagation. The facts are the interprocedural fuel for
// the hotpath, lockcharge, and faulterr analyzers.
//
// The lattice is a product of booleans ordered false < true, so joins
// are ORs and the fixpoint converges in at most |SCC| rounds per
// component. Everything the call graph cannot see into — calls leaving
// the package set, dynamic calls through function values — is conservative:
// assumed to allocate unless a small intrinsics table of known-clean
// standard-library operations says otherwise, never assumed to charge
// the clock or take a lock (those invariants are repo-local, and their
// analyzers own the repo-local call names).
//
// Allocation sites covered by a reasoned //horselint:allow-<analyzer>
// directive (the analyzer name is Config.AllowAnalyzer, "hotpath" by
// default) are excluded from the facts: the author has vouched that the
// site is off the hot path (a cold branch, a defensive fallback), so it
// must not poison the verdict of every transitive caller.
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

// Site is one allocation (or clock-charge) witness inside a function.
type Site struct {
	Pos  token.Pos
	What string
}

// Facts are one function's computed summary.
type Facts struct {
	// Allocates reports whether the function may allocate on some path;
	// AllocWhy is a one-line witness used when the function appears as a
	// callee, and Allocs lists every witness site inside this function's
	// own body (direct constructs, conservative external calls, and
	// calls to allocating callees), in source order.
	Allocates bool
	AllocWhy  string
	Allocs    []Site

	// AcquiresLock reports a Lock/RLock call on some path (transitive).
	AcquiresLock bool

	// ChargesClock reports a Charge/Advance call on some path
	// (transitive); ClockWhy is its witness.
	ChargesClock bool
	ClockWhy     string

	// ReturnsSeedErr reports that the function has an error result and
	// may return an error originating (transitively) from one of the
	// configured seed calls.
	ReturnsSeedErr bool

	// Reads and Writes list the witness sites inside this function's
	// own body, in source order, of a read / write of a
	// coordinator-owned field on some path (a direct access, or a call
	// to a callee that may make one). Rands does the same for
	// coordinator-shared PRNG and fault streams: stream-typed owned
	// fields touched without a Derive re-key, and process-global
	// math/rand draws. OwnedWrites lists direct writes to any owned
	// field (they do not propagate). All of these populate only when
	// Config.Owned is set.
	Reads       []Site
	Writes      []Site
	Rands       []Site
	OwnedWrites []OwnedWrite

	hasErrorResult bool
	directSeed     bool

	// owned holds the transitive owned-state facts, indexed by
	// ownRead/ownWrite/ownRand.
	owned [3]ownedFact
}

// Config parameterizes a summary computation.
type Config struct {
	// ErrorSeeds are call names (bare function or method names) treated
	// as fault-error sources for ReturnsSeedErr.
	ErrorSeeds []string
	// AllowAnalyzer is the directive name whose //horselint:allow-*
	// comments exclude an allocation site from the facts. Empty
	// disables the exclusion.
	AllowAnalyzer string

	// Owned maps the ownership-annotated fields to their descriptors;
	// when set, the Reads/Writes/Rands facts are computed. OwnAllow and
	// RandAllow are the directive names whose //horselint:allow-*
	// comments exclude a coordinator-state access or a stream access
	// from the facts (empty disables each exclusion).
	Owned     map[*types.Var]OwnedField
	OwnAllow  string
	RandAllow string
}

// Set holds the computed facts of one package set.
type Set struct {
	Graph *callgraph.Graph

	facts map[*callgraph.Node]*Facts
}

// Of returns the program's default summaries (allow-analyzer "hotpath",
// no error seeds), computed once and memoized.
func Of(prog *lint.Program) *Set {
	return Compute(prog, Config{AllowAnalyzer: "hotpath"})
}

// Compute returns the program's summaries under cfg, memoized per
// configuration. A configuration with an owned-field table is built
// afresh: its one caller, ownership.Of, is memoized itself.
func Compute(prog *lint.Program, cfg Config) *Set {
	if len(cfg.Owned) > 0 {
		return build(prog, cfg)
	}
	key := "summary:" + cfg.AllowAnalyzer + ":" + strings.Join(cfg.ErrorSeeds, ",")
	return prog.Cached(key, func() any {
		return build(prog, cfg)
	}).(*Set)
}

// Facts returns a node's summary (never nil for graph nodes).
func (s *Set) Facts(n *callgraph.Node) *Facts {
	if f := s.facts[n]; f != nil {
		return f
	}
	return &Facts{}
}

// FactsOf returns the summary for a FuncDecl or FuncLit, or nil when
// the declaration is not in the graph.
func (s *Set) FactsOf(decl ast.Node) *Facts {
	n := s.Graph.NodeOf(decl)
	if n == nil {
		return nil
	}
	return s.Facts(n)
}

// CallMayCharge reports whether a call expression may (transitively)
// charge the simulated clock, with a witness naming the callee. Direct
// Charge/Advance selectors are the caller's own business (the lockcharge
// analyzer already flags them) and report false here.
func (s *Set) CallMayCharge(call *ast.CallExpr) (bool, string) {
	for _, e := range s.Graph.EdgesAt(call) {
		if e.Callee == nil {
			continue
		}
		if f := s.Facts(e.Callee); f.ChargesClock {
			return true, e.Callee.ID
		}
	}
	return false, ""
}

func build(prog *lint.Program, cfg Config) *Set {
	g := callgraph.Of(prog)
	s := &Set{Graph: g, facts: make(map[*callgraph.Node]*Facts, len(g.Order))}
	seeds := make(map[string]bool, len(cfg.ErrorSeeds))
	for _, name := range cfg.ErrorSeeds {
		seeds[name] = true
	}

	d := &direct{prog: prog, cfg: cfg, seeds: seeds}
	for _, n := range g.Order {
		s.facts[n] = d.compute(n)
		d.ownedFacts(n, s.facts[n])
	}

	// Bottom-up boolean fixpoint: SCCs arrive callees-first, so one
	// inner loop per component (repeated until stable for intra-SCC
	// recursion) settles everything.
	for _, comp := range g.SCCs {
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				f := s.facts[n]
				for _, e := range n.Out {
					if e.Callee == nil {
						continue
					}
					cf := s.facts[e.Callee]
					if cf.Allocates && !f.Allocates {
						f.Allocates = true
						f.AllocWhy = calleeWhy(e.Callee.ID, cf.AllocWhy)
						changed = true
					}
					if cf.AcquiresLock && !f.AcquiresLock {
						f.AcquiresLock = true
						changed = true
					}
					if cf.ChargesClock && !f.ChargesClock {
						f.ChargesClock = true
						f.ClockWhy = "calls " + e.Callee.ID
						changed = true
					}
					if cf.ReturnsSeedErr && f.hasErrorResult && !f.ReturnsSeedErr {
						f.ReturnsSeedErr = true
						changed = true
					}
					for k, of := range cf.owned {
						if of.holds && !f.owned[k].holds {
							f.owned[k] = ownedFact{holds: true, why: calleeFactWhy(e.Callee.ID, of.why)}
							changed = true
						}
					}
				}
				if f.hasErrorResult && f.directSeed && !f.ReturnsSeedErr {
					f.ReturnsSeedErr = true
					changed = true
				}
			}
		}
	}

	// Final pass: extend each node's witness sites with its calls to
	// allocating callees, now that callee facts are settled.
	for _, n := range g.Order {
		f := s.facts[n]
		for _, e := range n.Out {
			if e.Callee == nil || !e.Pos.IsValid() {
				continue
			}
			cf := s.facts[e.Callee]
			if !cf.Allocates {
				continue
			}
			if d.allowedBy(cfg.AllowAnalyzer, e.Pos) {
				continue
			}
			f.Allocs = append(f.Allocs, Site{
				Pos:  e.Pos,
				What: fmt.Sprintf("call to %s may allocate (%s)", e.Callee.ID, cf.AllocWhy),
			})
			if !f.Allocates {
				f.Allocates = true
				f.AllocWhy = calleeWhy(e.Callee.ID, cf.AllocWhy)
			}
		}
		sortSites(f.Allocs)
	}

	// Same extension for the owned-state facts: each call to a callee
	// that may touch coordinator state or a shared stream becomes a
	// witness site at the call, unless a reasoned allow covers the line.
	if len(cfg.Owned) > 0 {
		for _, n := range g.Order {
			f := s.facts[n]
			for _, e := range n.Out {
				if e.Callee == nil || !e.Pos.IsValid() {
					continue
				}
				for k, of := range s.facts[e.Callee].owned {
					if of.holds && !d.allowedBy(cfg.ownedAllow(k), e.Pos) {
						f.addOwned(k, e.Pos, fmt.Sprintf("call to %s %s (%s)", e.Callee.ID, ownedMay[k], of.why))
					}
				}
			}
			sortSites(f.Reads)
			sortSites(f.Writes)
			sortSites(f.Rands)
		}
	}
	return s
}

// calleeFactWhy is calleeWhy for the owned-state facts: keep the chain
// at one hop.
func calleeFactWhy(id, why string) string {
	if strings.HasPrefix(why, "calls ") {
		return "calls " + id + ", transitively"
	}
	return "calls " + id + ": " + why
}

// calleeWhy builds a one-line witness for "calls X", keeping the chain
// to a single hop so diagnostics stay readable.
func calleeWhy(id, why string) string {
	if strings.HasPrefix(why, "calls ") || strings.HasPrefix(why, "call to ") {
		return "calls " + id + ", which allocates transitively"
	}
	return "calls " + id + ": " + why
}

func sortSites(sites []Site) {
	for i := 1; i < len(sites); i++ {
		for j := i; j > 0 && sites[j].Pos < sites[j-1].Pos; j-- {
			sites[j], sites[j-1] = sites[j-1], sites[j]
		}
	}
}
