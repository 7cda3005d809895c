// Package hotpath implements the horselint analyzer that makes the
// allocation-free trigger hot path a statically enforced invariant.
//
// A function marked with the directive
//
//	//horselint:hotpath
//
// in its doc comment must be *transitively* allocation-free: its own
// body may not contain an allocating construct (escaping closures,
// method values, interface boxing at call sites, fmt calls and string
// concatenation, append/make/new, map and slice literals, go
// statements), and every call it makes — resolved through the
// internal/analysis/callgraph package set — must lead to functions
// whose internal/analysis/summary verdict is allocation-free. Calls
// that leave the package set are conservatively assumed to allocate
// unless the summary's intrinsics table knows them to be clean.
//
// A site that is provably cold (a defensive fallback, an error branch)
// can be vouched for with a reasoned //horselint:allow-hotpath
// directive; the summary excludes vouched sites, so the exemption is
// visible to every transitive caller, and CI gates on the total count
// of allow directives so exemptions cannot accrete silently.
//
// The dynamic counterpart is the allocpin analyzer: every annotated
// function must also be covered by a testing.AllocsPerRun pin in its
// package's tests, so the static verdict and the measured allocation
// count agree.
package hotpath

import (
	"go/ast"

	"github.com/horse-faas/horse/internal/analysis/lint"
	"github.com/horse-faas/horse/internal/analysis/summary"
)

// Directive marks a function as hot-path in its doc comment.
const Directive = "//horselint:hotpath"

// Annotation is one //horselint:hotpath marker attached to a function
// declaration.
type Annotation struct {
	Func *ast.FuncDecl
	// Count is the number of directive lines in the doc comment
	// (more than one is flagged by phaseann).
	Count int
}

// DisplayName renders the function's diagnostic name ("(Recv).Name" for
// methods).
func (a Annotation) DisplayName() string { return lint.FuncName(a.Func) }

// Annotations returns the file's annotated function declarations.
func Annotations(f *lint.File) []Annotation {
	var out []Annotation
	for _, decl := range f.AST.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			if n := lint.DirectiveCount(fd.Doc, Directive); n > 0 {
				out = append(out, Annotation{Func: fd, Count: n})
			}
		}
	}
	return out
}

// Strays returns directive comments not attached to any function
// declaration's doc comment (they annotate nothing).
func Strays(f *lint.File) []*ast.Comment {
	var docs []*ast.CommentGroup
	for _, decl := range f.AST.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			docs = append(docs, fd.Doc)
		}
	}
	return lint.StrayDirectives(f, docs, Directive)
}

// Default returns the analyzer as wired into cmd/horselint.
func Default() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "hotpath",
		Doc: "functions marked //horselint:hotpath must be transitively allocation-free: " +
			"no allocating constructs in their bodies and no calls whose interprocedural " +
			"summary says may-allocate",
		Run: run,
	}
}

func run(pass *lint.Pass) error {
	if pass.Program == nil {
		return nil
	}
	sums := summary.Of(pass.Program)
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue // phaseann owns misplaced annotations
		}
		for _, ann := range Annotations(f) {
			facts := sums.FactsOf(ann.Func)
			if facts == nil {
				continue
			}
			name := ann.DisplayName()
			for _, site := range facts.Allocs {
				pass.Reportf(site.Pos, "hot-path function %s: %s", name, site.What)
			}
		}
	}
	return nil
}
