// Package lint is a minimal, dependency-free analysis framework modelled
// on golang.org/x/tools/go/analysis. The build environment for this
// repository is hermetic (no module proxy), so the subset of the
// go/analysis contract that horselint needs — analyzers, passes,
// diagnostics, a type-checking package loader (go/types, with the
// standard library checked from source), and suppression directives — is
// implemented here on the standard library alone. If the module ever
// gains network access to x/tools, the analyzers in sibling packages
// port mechanically: an Analyzer is the same (Name, Doc, Run) triple and
// Pass.Reportf has the same shape.
//
// Suppression: a comment of the form
//
//	//horselint:allow-<analyzer> <reason>
//
// on the offending line, or alone on the line directly above it,
// suppresses that analyzer's diagnostics for the line. The reason is
// mandatory: a bare directive suppresses nothing and is itself reported
// by the driver (see CheckDirectives), so every escape hatch in the tree
// documents why the invariant does not apply.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //horselint:allow-<name> directives. Lowercase letters only.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run inspects one package and reports diagnostics via the pass.
	Run func(*Pass) error
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

// String formats the diagnostic in the conventional file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// Program is the whole package set of the run. Interprocedural
	// analyzers reach through it (and its artifact cache) to see across
	// package boundaries; intra-procedural analyzers can ignore it.
	Program *Program

	diags *[]Diagnostic
}

// Program is one lint run's whole package set plus a memoization cache
// for derived artifacts (call graph, function summaries) that are
// expensive to build and shared by several analyzers. Runs are
// single-goroutine, so the cache needs no locking.
type Program struct {
	Pkgs []*Package

	cache map[string]any
}

// NewProgram wraps a loaded package set for interprocedural analysis.
func NewProgram(pkgs []*Package) *Program {
	return &Program{Pkgs: pkgs, cache: make(map[string]any)}
}

// Cached returns the artifact stored under key, building and storing it
// on first use.
func (p *Program) Cached(key string, build func() any) any {
	if v, ok := p.cache[key]; ok {
		return v
	}
	v := build()
	p.cache[key] = v
	return v
}

// Allowed reports whether a reasoned //horselint:allow-<analyzer>
// directive covers pos anywhere in the program. Interprocedural fact
// builders use it so a vouched-for site (e.g. a cold branch inside an
// otherwise hot helper) does not poison every caller's verdict.
func (p *Program) Allowed(analyzer string, pos token.Position) bool {
	for _, pkg := range p.Pkgs {
		if pkg.suppressed(analyzer, pos) {
			return true
		}
	}
	return false
}

// Reportf records a diagnostic at pos unless a matching
// //horselint:allow-<analyzer> directive (with a reason) covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Pkg.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Position: position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every analyzer to every package and returns the combined
// diagnostics sorted by position. Analyzer errors abort the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunTimed(pkgs, analyzers)
	return diags, err
}

// AnalyzerTiming is one analyzer's cumulative wall time across every
// package of a run. The first analyzer to request a shared artifact
// (call graph, summaries) pays its build cost, so timings attribute
// construction to the analyzer that triggered it.
type AnalyzerTiming struct {
	Name string
	Wall time.Duration
}

// RunTimed is Run plus per-analyzer wall-time attribution, in the order
// the analyzers were given.
func RunTimed(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerTiming, error) {
	var diags []Diagnostic
	prog := NewProgram(pkgs)
	wall := make([]time.Duration, len(analyzers))
	for _, pkg := range pkgs {
		for i, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, Program: prog, diags: &diags}
			start := time.Now()
			err := a.Run(pass)
			wall[i] += time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	Sort(diags)
	timings := make([]AnalyzerTiming, len(analyzers))
	for i, a := range analyzers {
		timings[i] = AnalyzerTiming{Name: a.Name, Wall: wall[i]}
	}
	return diags, timings, nil
}

// Sort orders diagnostics by file, line, column, then analyzer name.
func Sort(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Package is one loaded, type-checked package: every .go file of one
// directory.
type Package struct {
	// Path is the import path (module path + relative directory).
	Path string
	// Name is the package clause identifier of the production files.
	Name string
	// Dir is the directory the files were read from.
	Dir string
	// Files holds the parsed sources, test files included (analyzers
	// that only govern production code skip File.Test entries).
	Files []*File
	// Types is the checked package: production files plus in-package
	// tests. An external _test package is checked against it.
	Types *types.Package
	// Info records the type information of every file in Files.
	Info *types.Info

	checker *types.Checker
}

// File is one parsed source file plus the lookup tables analyzers need.
type File struct {
	// Name is the path the file was parsed from.
	Name string
	// AST is the parsed file (with comments).
	AST *ast.File
	// Test reports whether the file name ends in _test.go.
	Test bool

	// directives lists the //horselint:allow-* comments in source order.
	directives []directive
}

// ImportedMember returns the import path and name of a qualified
// identifier pkg.Name, or "" if sel does not select through an import.
func (p *Package) ImportedMember(sel *ast.SelectorExpr) (path, name string) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// directive is one parsed //horselint:allow-<analyzer> comment.
type directive struct {
	Analyzer string
	Reason   string
	Position token.Position
}

var directiveRE = regexp.MustCompile(`^//horselint:allow-([a-z][a-z0-9]*)(?:[ \t]+(.*))?$`)

// indexDirectives scans the file's comments for horselint directives.
func (f *File) indexDirectives() {
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			m := directiveRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			f.directives = append(f.directives, directive{
				Analyzer: m[1],
				Reason:   strings.TrimSpace(m[2]),
				Position: fset.Position(c.Pos()),
			})
		}
	}
}

// suppressed reports whether a reasoned allow directive for analyzer
// covers the given position (same line or the line above).
func (p *Package) suppressed(analyzer string, pos token.Position) bool {
	for _, f := range p.Files {
		if f.Name != pos.Filename {
			continue
		}
		for _, d := range f.directives {
			if d.Analyzer == analyzer && d.Reason != "" && (d.Position.Line == pos.Line || d.Position.Line == pos.Line-1) {
				return true
			}
		}
	}
	return false
}

// CheckDirectives reports malformed suppression directives: a directive
// without a reason (it suppresses nothing, so it is either dead or the
// author skipped the justification) and directives naming an unknown
// analyzer. known maps valid analyzer names.
func CheckDirectives(pkgs []*Package, known map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, d := range allDirectives(pkgs) {
		var msg string
		switch {
		case !known[d.Analyzer]:
			msg = fmt.Sprintf("unknown analyzer %q in horselint:allow directive", d.Analyzer)
		case d.Reason == "":
			msg = fmt.Sprintf("horselint:allow-%s directive needs a reason; bare directives suppress nothing", d.Analyzer)
		default:
			continue
		}
		diags = append(diags, Diagnostic{Analyzer: "directive", Position: d.Position, Message: msg})
	}
	Sort(diags)
	return diags
}

// CountDirectives tallies the reasoned //horselint:allow-* directives in
// the package set, keyed by analyzer name. Bare directives are excluded:
// they suppress nothing and CheckDirectives already rejects them. The
// driver's allow-count gate compares this tally against a checked-in
// baseline so suppression debt cannot grow silently.
func CountDirectives(pkgs []*Package) map[string]int {
	counts := map[string]int{}
	for _, d := range allDirectives(pkgs) {
		if d.Reason != "" {
			counts[d.Analyzer]++
		}
	}
	return counts
}

// allDirectives lists every //horselint:allow-* directive in the
// package set.
func allDirectives(pkgs []*Package) []directive {
	var out []directive
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			out = append(out, f.directives...)
		}
	}
	return out
}

// PathMatches reports whether pkgPath equals prefix or lies underneath
// it ("a/b" matches prefixes "a/b" and "a").
func PathMatches(pkgPath string, prefixes []string) bool {
	for _, p := range prefixes {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// FuncName renders a function declaration's diagnostic name:
// "(Recv).Name" for methods (pointer and type arguments stripped), the
// bare name otherwise.
func FuncName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return "(" + x.Name + ")." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// Callee returns the function or method a call invokes, as declared
// (generic instantiations map to their origin), or nil for builtins,
// conversions, and calls through function values. An interface method
// call returns the interface's method.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// DirectiveCount counts the lines of cg that are exactly dir (trailing
// blanks aside), so trailing prose never silently annotates.
func DirectiveCount(cg *ast.CommentGroup, dir string) int {
	n := 0
	if cg != nil {
		for _, c := range cg.List {
			if isDirective(c, dir) {
				n++
			}
		}
	}
	return n
}

func isDirective(c *ast.Comment, dir string) bool {
	return strings.TrimRight(c.Text, " \t") == dir
}

// StrayDirectives returns f's comment lines that are one of dirs but
// belong to none of the attached comment groups: they annotate nothing.
func StrayDirectives(f *File, attached []*ast.CommentGroup, dirs ...string) []*ast.Comment {
	owned := map[*ast.CommentGroup]bool{}
	for _, cg := range attached {
		owned[cg] = true
	}
	var out []*ast.Comment
	for _, cg := range f.AST.Comments {
		if owned[cg] {
			continue
		}
		for _, c := range cg.List {
			for _, dir := range dirs {
				if isDirective(c, dir) {
					out = append(out, c)
				}
			}
		}
	}
	return out
}
