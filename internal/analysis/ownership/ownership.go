// Package ownership implements the annotation vocabulary and the
// whole-program phase/ownership analysis behind the shardsafe,
// phaseann, and sharedrand analyzers (DESIGN.md §9, §13).
//
// The conservative-PDES cluster run alternates two phases. Between
// barriers the coordinator runs alone: it pumps arrivals, routes them,
// retries failures, and folds outcomes into the report. During a serve
// barrier a ShardGroup drains the node-local engines in parallel, on
// the coordinator and its worker goroutines, and the only state a
// shard may touch is state owned by its own nodes. Three directives
// make that contract explicit:
//
//	//horselint:shardphase   on a function: may run inside a serve
//	                         barrier (an Each handler or anything it
//	                         calls). Callable from either phase.
//	//horselint:coordinator  on a function: must only run between
//	                         barriers — never reachable from a shard.
//	                         On a struct field (or a whole struct type):
//	                         the field is coordinator-owned state.
//	//horselint:shardlocal   on a struct field (or a whole struct
//	                         type): the field is owned by a node shard.
//
// The ownership analysis resolves the directives into an owned-field
// table for the summary fixpoint (which computes transitive
// reads/writes/stream-use facts with witness sites) and into shard- and
// coordinator-phase reachability over the call graph (which closes the
// annotation set over the actual ShardGroup.Each handler set). Fields
// are identified by their *types.Var, so same-named fields of different
// types never alias, and reachability follows every resolved call edge,
// interface dispatch included.
package ownership

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/horse-faas/horse/internal/analysis/lint"
)

// The three ownership directives.
const (
	DirShardPhase  = "//horselint:shardphase"
	DirCoordinator = "//horselint:coordinator"
	DirShardLocal  = "//horselint:shardlocal"
)

// FuncAnn is one function declaration carrying ownership directives in
// its doc comment. The counts let phaseann flag duplicates and
// conflicts; exactly one of ShardPhase/Coordinator should be 1 and the
// rest 0 on a well-formed annotation (ShardLocal never belongs on a
// function).
type FuncAnn struct {
	Func *ast.FuncDecl
	Counts
}

// Counts tallies the three directives over the comment groups that
// annotate one declaration.
type Counts struct {
	ShardPhase  int
	Coordinator int
	ShardLocal  int
}

func countDirs(groups ...*ast.CommentGroup) Counts {
	var c Counts
	for _, cg := range groups {
		c.ShardPhase += lint.DirectiveCount(cg, DirShardPhase)
		c.Coordinator += lint.DirectiveCount(cg, DirCoordinator)
		c.ShardLocal += lint.DirectiveCount(cg, DirShardLocal)
	}
	return c
}

// Total is the number of directive lines counted.
func (c Counts) Total() int { return c.ShardPhase + c.Coordinator + c.ShardLocal }

// DisplayName renders the function's diagnostic name ("(Recv).Name" for
// methods).
func (a FuncAnn) DisplayName() string { return lint.FuncName(a.Func) }

// FieldAnn is one struct field covered by ownership directives, either
// directly (field doc or trailing comment) or inherited from a
// directive on the enclosing type declaration, in which case FromType
// is set and every field of the struct gets one FieldAnn.
type FieldAnn struct {
	TypeName string
	Field    *ast.Field
	// Vars are the fields the declaration introduces (the embedded
	// field for an embedded type).
	Vars []*types.Var
	Counts
	FromType bool
}

// Key renders the diagnostic identity of the annotated field.
func (a FieldAnn) Key() string {
	names := make([]string, len(a.Vars))
	for i, v := range a.Vars {
		names[i] = v.Name()
	}
	return a.TypeName + "." + strings.Join(names, ",")
}

// FuncAnns returns the file's function declarations carrying ownership
// directives.
func FuncAnns(f *lint.File) []FuncAnn {
	var out []FuncAnn
	for _, decl := range f.AST.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			if c := countDirs(fd.Doc); c.Total() > 0 {
				out = append(out, FuncAnn{Func: fd, Counts: c})
			}
		}
	}
	return out
}

// FieldAnns returns the annotated struct fields of one of pkg's files. A
// directive on the type declaration (GenDecl doc, TypeSpec doc, or
// TypeSpec trailing comment) covers every field of the struct; a
// directive on a field's doc or trailing comment covers that field
// declaration.
func FieldAnns(pkg *lint.Package, f *lint.File) []FieldAnn {
	var out []FieldAnn
	for _, decl := range f.AST.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || st.Fields == nil {
				continue
			}
			typ := countDirs(gd.Doc, ts.Doc, ts.Comment)
			for _, field := range st.Fields.List {
				own := countDirs(field.Doc, field.Comment)
				if typ.Total()+own.Total() == 0 {
					continue
				}
				out = append(out, FieldAnn{
					TypeName: ts.Name.Name,
					Field:    field,
					Vars:     fieldVars(pkg.Info, field),
					Counts: Counts{
						ShardPhase:  typ.ShardPhase + own.ShardPhase,
						Coordinator: typ.Coordinator + own.Coordinator,
						ShardLocal:  typ.ShardLocal + own.ShardLocal,
					},
					FromType: own.Total() == 0,
				})
			}
		}
	}
	return out
}

// fieldVars lists the fields a field declaration introduces. For an
// embedded field, Defs maps the type name's identifier to the field.
func fieldVars(info *types.Info, field *ast.Field) []*types.Var {
	idents := field.Names
	if len(idents) == 0 {
		t := field.Type
		for len(idents) == 0 {
			switch x := t.(type) {
			case *ast.StarExpr:
				t = x.X
			case *ast.IndexExpr:
				t = x.X
			case *ast.IndexListExpr:
				t = x.X
			case *ast.SelectorExpr:
				t = x.Sel
			case *ast.Ident:
				idents = []*ast.Ident{x}
			default:
				return nil
			}
		}
	}
	var vars []*types.Var
	for _, id := range idents {
		if v, ok := info.Defs[id].(*types.Var); ok {
			vars = append(vars, v)
		}
	}
	return vars
}

// Strays returns ownership directive comments attached to nothing the
// vocabulary covers: not a function's doc, not a struct type's doc or
// trailing comment, not a field's doc or trailing comment.
func Strays(f *lint.File) []*ast.Comment {
	var attached []*ast.CommentGroup
	for _, decl := range f.AST.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			attached = append(attached, d.Doc)
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			attached = append(attached, d.Doc)
			for _, spec := range d.Specs {
				ts := spec.(*ast.TypeSpec)
				attached = append(attached, ts.Doc, ts.Comment)
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						attached = append(attached, field.Doc, field.Comment)
					}
				}
			}
		}
	}
	return lint.StrayDirectives(f, attached, DirShardPhase, DirCoordinator, DirShardLocal)
}

// streamTypeNames are the type names whose fields hold a PRNG or fault
// stream: touching one from shard code without re-keying it through
// Derive shares the coordinator's stream across shards.
var streamTypeNames = map[string]bool{
	"Injector": true,
	"Rand":     true,
	"Source":   true,
	"PCG":      true,
	"ChaCha8":  true,
}

// StreamType reports whether a field's type is (a pointer to) a named
// PRNG or fault-stream type.
func StreamType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	return ok && streamTypeNames[named.Obj().Name()]
}
