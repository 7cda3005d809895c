package summary

// Owned-state facts: which functions may (transitively) read or write
// coordinator-owned fields, and which may touch a coordinator-shared
// PRNG or fault stream. They are the interprocedural fuel for the
// shardsafe and sharedrand analyzers the way Allocates fuels hotpath
// (DESIGN.md §9). The facts only populate when Config.Owned is set; the
// default summary (Of) computes none and pays nothing.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"github.com/horse-faas/horse/internal/analysis/callgraph"
	"github.com/horse-faas/horse/internal/analysis/lint"
)

// OwnedField describes one struct field covered by an ownership
// directive (//horselint:coordinator or //horselint:shardlocal on the
// field, or on its enclosing type for every field). Config.Owned keys
// it by the field's *types.Var, so a selector x.f matches exactly the
// field it selects, wherever it is written.
type OwnedField struct {
	// Key is the display identity, "Type.Field".
	Key string
	// Coord marks coordinator-owned state (otherwise shard-local).
	Coord bool
	// Stream marks PRNG/fault-stream typed fields, whose accesses feed
	// Rands instead of Reads/Writes.
	Stream bool
}

// OwnedWrite is one direct (intraprocedural) write to an owned field —
// coordinator or shard-local — for shardsafe's rule that every such
// write must live in phase-annotated code. Unlike Reads/Writes these
// deliberately do not propagate through the call graph: the rule is
// about where the write itself lives, not who calls it.
type OwnedWrite struct {
	Key   string
	Coord bool
	Pos   token.Pos
}

// randDraws are the package-level math/rand (and v2) functions that
// draw from or reseed the process-global stream. Constructors (New,
// NewSource, NewPCG, NewChaCha8) are the sanctioned replacements.
var randDraws = map[string]bool{
	"Int": true, "Intn": true, "IntN": true,
	"Int31": true, "Int31n": true, "Int32": true, "Int32N": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"Uint": true, "UintN": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true,
	"NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true, "N": true,
}

// GlobalRandDraw reports whether sel names a math/rand (or v2) function
// that draws from the process-global stream. A shard drawing from it
// interleaves with every other shard nondeterministically, and any
// draw from it depends on everything else that touched it.
func GlobalRandDraw(pkg *lint.Package, sel *ast.SelectorExpr) bool {
	path, name := pkg.ImportedMember(sel)
	return (path == "math/rand" || path == "math/rand/v2") && randDraws[name]
}

// The owned-state fact kinds, indexing Facts.owned and ownedKinds.
const (
	ownRead = iota
	ownWrite
	ownRand
)

// ownedFact is one transitive owned-state fact: whether it holds, and a
// one-line witness for callers.
type ownedFact struct {
	holds bool
	why   string
}

// ownedMay words a call witness of each kind.
var ownedMay = [...]string{
	ownRead:  "may read coordinator-owned state",
	ownWrite: "may write coordinator-owned state",
	ownRand:  "may draw from a coordinator-shared stream",
}

// ownedAllow returns the directive name that vouches for a site of
// kind k.
func (c Config) ownedAllow(k int) string {
	if k == ownRand {
		return c.RandAllow
	}
	return c.OwnAllow
}

// addOwned records a witness site of kind k, making the fact hold.
func (f *Facts) addOwned(k int, pos token.Pos, what string) {
	sites := [...]*[]Site{ownRead: &f.Reads, ownWrite: &f.Writes, ownRand: &f.Rands}[k]
	*sites = append(*sites, Site{Pos: pos, What: what})
	if !f.owned[k].holds {
		f.owned[k] = ownedFact{holds: true, why: what}
	}
}

// ownedFacts walks one function body for owned-field accesses and
// global rand draws, filling f.Reads/Writes/Rands/OwnedWrites. The walk
// is shallow like compute's: nested function literals are their own
// graph nodes and their facts flow back through closure edges.
func (d *direct) ownedFacts(n *callgraph.Node, f *Facts) {
	if len(d.cfg.Owned) == 0 {
		return
	}
	// First pass: classify expressions. A selector is a write target when
	// it is assigned, inc/dec'd, address-taken, sliced/indexed on the
	// left of an assignment, or a range assignment target. Receivers of
	// .Derive(...) calls are re-keying a stream, which is exactly the
	// legitimate way to consume one.
	writes := map[ast.Expr]bool{}
	derived := map[ast.Expr]bool{}
	n.Inspect(func(x ast.Node) {
		switch v := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				markWrite(writes, lhs)
			}
		case *ast.IncDecStmt:
			markWrite(writes, v.X)
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				markWrite(writes, v.X)
			}
		case *ast.RangeStmt:
			if v.Key != nil {
				markWrite(writes, v.Key)
			}
			if v.Value != nil {
				markWrite(writes, v.Value)
			}
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Derive" {
				derived[sel.X] = true
			}
		}
	})

	// Second pass: record the accesses.
	n.Inspect(func(x ast.Node) {
		switch v := x.(type) {
		case *ast.SelectorExpr:
			field, ok := n.Pkg.Info.Selections[v]
			if !ok || field.Kind() != types.FieldVal {
				return
			}
			of, ok := d.cfg.Owned[field.Obj().(*types.Var).Origin()]
			if !ok {
				return
			}
			isWrite := writes[v]
			if isWrite {
				f.OwnedWrites = append(f.OwnedWrites, OwnedWrite{Key: of.Key, Coord: of.Coord, Pos: v.Pos()})
			}
			if !of.Coord {
				return
			}
			// Coordinator-owned streams are sharedrand's business, not
			// shardsafe's; shard-local streams (per-node derived) are
			// plain shard state.
			switch {
			case of.Stream:
				if !derived[v] && !d.allowedBy(d.cfg.RandAllow, v.Pos()) {
					f.addOwned(ownRand, v.Pos(), fmt.Sprintf("uses coordinator-shared stream %s (derive a per-node stream instead)", of.Key))
				}
			case d.allowedBy(d.cfg.OwnAllow, v.Pos()):
			case isWrite:
				f.addOwned(ownWrite, v.Pos(), "writes coordinator-owned field "+of.Key)
			default:
				f.addOwned(ownRead, v.Pos(), "reads coordinator-owned field "+of.Key)
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr)
			if ok && GlobalRandDraw(n.Pkg, sel) && !d.allowedBy(d.cfg.RandAllow, v.Pos()) {
				f.addOwned(ownRand, v.Pos(), fmt.Sprintf("draws from the process-global %s stream", types.ExprString(sel)))
			}
		}
	})
	sortSites(f.Reads)
	sortSites(f.Writes)
	sortSites(f.Rands)
}

// markWrite unwraps an assignment target down to the selector being
// written through — c.ring[i], (*c.ptr), c.buf[lo:hi] all write via the
// named field — and marks it.
func markWrite(writes map[ast.Expr]bool, e ast.Expr) {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.IndexListExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.SelectorExpr:
			writes[v] = true
			return
		default:
			return
		}
	}
}
