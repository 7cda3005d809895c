// Package lockcharge implements the flow-sensitive horselint analyzer
// that keeps mutexes off the virtual-time hot path.
//
// HORSE's resume timings (DESIGN.md §5) are virtual-clock charges; a
// sync.Mutex or RWMutex held across a Charge/Advance call couples the
// simulated critical path to host-scheduler lock contention, and one
// held across a channel operation is the classic deadlock shape the
// trigger path cannot afford. The analyzer tracks lock state through
// the CFG (a may-held analysis: a lock released on only one branch arm
// is still held on the other) and reports any virtual-clock call
// (Charge, Advance) or channel operation (send, receive, select) that
// executes while a lock may be held.
//
// A deferred Unlock does not release early: after `defer mu.Unlock()`
// the lock is held until function exit, so every later charge in the
// function is flagged — which is exactly the latency-skew pattern the
// invariant exists to catch. Test files are exempt, matching the rest
// of the suite.
//
// The check is interprocedural: while a lock may be held, every call
// whose callee transitively charges the clock (per the bottom-up
// summaries in internal/analysis/summary) is reported too, so hiding
// the Charge inside a helper no longer hides the latency skew. A
// callee site vouched with //horselint:allow-lockcharge is excluded
// from its function's summary, keeping the exemption caller-visible.
package lockcharge

import (
	"go/ast"
	"go/token"
	"maps"
	"sort"

	"github.com/horse-faas/horse/internal/analysis/cfg"
	"github.com/horse-faas/horse/internal/analysis/dataflow"
	"github.com/horse-faas/horse/internal/analysis/lint"
	"github.com/horse-faas/horse/internal/analysis/summary"
)

// Name is the analyzer's directive name: //horselint:allow-lockcharge.
const Name = "lockcharge"

// DefaultPackages is the production list of trigger-path packages the
// invariant governs (ISSUE: the packages whose timings the paper's
// resume claims depend on).
var DefaultPackages = []string{
	"github.com/horse-faas/horse/internal/vmm",
	"github.com/horse-faas/horse/internal/core",
	"github.com/horse-faas/horse/internal/psm",
	"github.com/horse-faas/horse/internal/faas",
}

// clockCalls are the virtual-clock-advancing method names (the same set
// costcharge governs).
var clockCalls = map[string]bool{"Charge": true, "Advance": true}

// acquire and release are the lock-acquiring and lock-releasing method
// names.
var (
	acquire = map[string]bool{"Lock": true, "RLock": true}
	release = map[string]bool{"Unlock": true, "RUnlock": true}
)

// Default returns the analyzer configured for this repository.
func Default() *lint.Analyzer { return New(DefaultPackages...) }

// New returns a lockcharge analyzer restricted to packages whose import
// path matches one of the given prefixes (empty: all packages).
func New(prefixes ...string) *lint.Analyzer {
	return &lint.Analyzer{
		Name: Name,
		Doc:  "forbids holding a sync.Mutex/RWMutex across virtual-clock charges or channel operations in trigger-path packages",
		Run: func(pass *lint.Pass) error {
			if len(prefixes) > 0 && !lint.PathMatches(pass.Pkg.Path, prefixes) {
				return nil
			}
			var sums *summary.Set
			if pass.Program != nil {
				sums = summary.Compute(pass.Program, summary.Config{AllowAnalyzer: Name})
			}
			for _, f := range pass.Pkg.Files {
				if f.Test {
					continue
				}
				for _, fn := range cfg.Functions(f.AST) {
					checkFunc(pass, fn, sums)
				}
			}
			return nil
		},
	}
}

// held is the dataflow fact: lock key (receiver expression text) →
// acquisition position, for every lock that may be held.
type held map[string]token.Pos

// analysis implements dataflow.Analysis[held].
type analysis struct {
	fset *token.FileSet
}

func (a analysis) Entry() held { return held{} }

func (a analysis) Join(x, y held) held {
	if len(y) == 0 {
		return x
	}
	if len(x) == 0 {
		return y
	}
	out := make(held, len(x)+len(y))
	for k, p := range x {
		out[k] = p
	}
	for k, p := range y {
		if q, ok := out[k]; !ok || p < q {
			out[k] = p
		}
	}
	return out
}

func (a analysis) Equal(x, y held) bool { return maps.Equal(x, y) }

func (a analysis) Transfer(n ast.Node, in held) held {
	// A deferred Lock/Unlock changes no state here: the call runs at
	// function exit, so it neither acquires now nor releases early.
	if _, ok := n.(*ast.DeferStmt); ok {
		return in
	}
	out := in
	mutated := false
	mutate := func() {
		if !mutated {
			cp := make(held, len(out))
			for k, p := range out {
				cp[k] = p
			}
			out = cp
			mutated = true
		}
	}
	cfg.Inspect(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) != 0 {
			return true
		}
		key := cfg.ExprString(a.fset, sel.X)
		switch {
		case acquire[sel.Sel.Name]:
			mutate()
			out[key] = call.Pos()
		case release[sel.Sel.Name]:
			if _, ok := out[key]; ok {
				mutate()
				delete(out, key)
			}
		}
		return true
	})
	return out
}

func checkFunc(pass *lint.Pass, fn cfg.NamedFunc, sums *summary.Set) {
	g := cfg.Build(fn.Name, fn.Node)
	a := analysis{fset: pass.Fset}
	in := dataflow.Forward[held](g, a)
	dataflow.Replay[held](g, a, in, func(n ast.Node, before held) {
		if len(before) == 0 {
			return
		}
		if _, ok := n.(*ast.DeferStmt); ok {
			return
		}
		if op, pos := blockingOp(n); op != "" {
			reportHeld(pass, before, pos, op)
		}
		if sums == nil {
			return
		}
		// Interprocedural: a callee that transitively charges the
		// clock is as bad as a direct Charge under the lock.
		cfg.Inspect(n, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && clockCalls[sel.Sel.Name] {
				return false // direct charge, reported by blockingOp
			}
			if charges, callee := sums.CallMayCharge(call); charges {
				for _, key := range sortedHeld(before) {
					acq := before[key]
					pass.Reportf(call.Pos(),
						"call to %s may charge the virtual clock while lock %s (acquired at line %d) is held; release the mutex before calling into clock-charging code",
						callee, key, pass.Fset.Position(acq).Line)
				}
			}
			return true
		})
	})
}

// blockingOp classifies n: the first virtual-clock call or channel
// operation inside it, or "" if none.
func blockingOp(n ast.Node) (op string, pos token.Pos) {
	cfg.Inspect(n, func(x ast.Node) bool {
		if op != "" {
			return false
		}
		switch v := x.(type) {
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok && clockCalls[sel.Sel.Name] {
				op, pos = "virtual-clock "+sel.Sel.Name, v.Pos()
				return false
			}
		case *ast.SendStmt:
			op, pos = "channel send", v.Arrow
			return false
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				op, pos = "channel receive", v.OpPos
				return false
			}
		}
		return true
	})
	return op, pos
}

func reportHeld(pass *lint.Pass, before held, pos token.Pos, op string) {
	for _, key := range sortedHeld(before) {
		acq := before[key]
		pass.Reportf(pos,
			"%s executes while lock %s (acquired at line %d) may be held; release the mutex before advancing the virtual clock or touching channels",
			op, key, pass.Fset.Position(acq).Line)
	}
}

func sortedHeld(h held) []string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
