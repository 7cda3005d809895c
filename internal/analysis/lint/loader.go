package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// The standard library is immutable input, so a process type-checks it
// once: every load parses into one file set and imports the standard
// library through one stdImporter, which keeps each package it has
// checked. loadMu serialises loads, because that importer is not safe
// for concurrent use. Repository packages are re-checked by every load.
var (
	fset   = token.NewFileSet()
	std    = newStdImporter(fset)
	loadMu sync.Mutex
)

// Fset returns the file set every load parses into: positions of any
// loaded package resolve against it.
func Fset() *token.FileSet { return fset }

// Load parses and type-checks the packages selected by the given
// patterns, rooted at dir. Patterns follow the go tool's shape: "./pkg"
// selects one directory, "./pkg/..." a subtree, "./..." everything under
// dir. A package's import path is the path of the module whose go.mod
// is nearest above its directory, joined with the relative directory;
// without a go.mod the relative path alone is used.
//
// Directories named testdata, vendor, or starting with "." or "_" are
// skipped, matching the go tool, and so are files excluded by build
// constraints (cgo off, as for the standard library). Every package is
// checked with go/types. Repository packages are checked from source in
// dependency order, including ones the patterns do not select; the
// standard library is checked from source once per process (see
// stdImporter). Test files are checked the way go vet sees them:
// production files plus in-package tests form one package, an external
// _test package forms another, and importers see only production files.
//
// Parse and type errors do not stop at the first: Load returns every
// one of them, each with its file:line:col position, as LoadErrors.
// Parse errors end the load before type checking starts.
func Load(dir string, patterns ...string) ([]*Package, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modRoot, modPath := findModule(root)
	return load(root, modRoot, modPath, patterns)
}

// LoadAsModule is Load with the module resolution pinned: dir itself is
// treated as the root of a module named modPath (possibly empty). The
// analysistest harness uses it so testdata packages get short import
// paths independent of the enclosing repository's go.mod.
func LoadAsModule(dir, modPath string, patterns ...string) ([]*Package, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return load(root, root, modPath, patterns)
}

// LoadErrors aggregates every parse or type error of one load: a tree
// with several broken files reports them all (each with file:line:col)
// in a single run instead of stopping at the first. I/O and pattern
// errors remain fail-fast.
type LoadErrors []error

func (e LoadErrors) Error() string {
	msgs := make([]string, len(e))
	for i, err := range e {
		msgs[i] = err.Error()
	}
	return strings.Join(msgs, "\n")
}

// Unwrap exposes the individual errors to errors.Is/As.
func (e LoadErrors) Unwrap() []error { return []error(e) }

// module maps an import-path prefix onto a directory: a go.mod's module
// line, or one of its replace directives with a local target.
type module struct{ path, dir string }

// loader holds one load's package table. Packages are keyed by import
// path; those the patterns did not select are parsed on demand, without
// their test files, when something imports them.
type loader struct {
	modRoot string
	modPath string
	mods    []module
	seenMod map[string]bool
	pkgs    map[string]*Package
	errs    LoadErrors
}

func load(root, modRoot, modPath string, patterns []string) ([]*Package, error) {
	dirs, err := matchDirs(root, patterns)
	if err != nil {
		return nil, err
	}
	loadMu.Lock()
	defer loadMu.Unlock()
	l := &loader{
		modRoot: modRoot,
		modPath: modPath,
		seenMod: map[string]bool{},
		pkgs:    map[string]*Package{},
	}
	l.mods = append(l.mods, module{modPath, modRoot})
	l.addModule(modRoot)

	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := l.parseDir(d, importPath(d, l.moduleOf(d)), true)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	if len(l.errs) > 0 {
		return nil, l.errs
	}

	// Production packages first, so every importer sees exactly the
	// production files; then each package's tests.
	for _, pkg := range pkgs {
		l.check(pkg)
	}
	for _, pkg := range pkgs {
		l.checkTests(pkg)
	}
	if len(l.errs) > 0 {
		return nil, l.errs
	}
	return pkgs, nil
}

// matchDirs expands the patterns into a sorted list of directories.
func matchDirs(root string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		rec := false
		p := pat
		if p == "..." || strings.HasSuffix(p, "/...") {
			rec = true
			p = strings.TrimSuffix(strings.TrimSuffix(p, "..."), "/")
			if p == "" {
				p = "."
			}
		}
		base := filepath.Join(root, filepath.FromSlash(p))
		info, err := os.Stat(base)
		if err != nil || !info.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q: no such directory %s", pat, base)
		}
		if !rec {
			dirs[base] = true
			continue
		}
		err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirs[path] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)
	return sorted, nil
}

// findModule walks upward from dir looking for a go.mod and returns the
// module root and module path. Without one it returns dir and "".
func findModule(dir string) (root, path string) {
	for d := dir; ; {
		if path, _, ok := parseGoMod(d); ok {
			return d, path
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir, ""
		}
		d = parent
	}
}

// parseGoMod reads the go.mod in dir, if any: its module path and its
// replace directives with local targets, resolved against dir.
func parseGoMod(dir string) (path string, replaces []module, ok bool) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", nil, false
	}
	block := false
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
			continue
		case f[0] == "module" && len(f) == 2:
			path = f[1]
			continue
		case f[0] == "replace" && len(f) == 2 && f[1] == "(":
			block = true
			continue
		case f[0] == ")":
			block = false
			continue
		case f[0] == "replace":
			f = f[1:]
		case !block:
			continue
		}
		// f is "old [version] => new": only a version-less new is local.
		if i := slices.Index(f, "=>"); i > 0 && i == len(f)-2 && (strings.HasPrefix(f[i+1], ".") || filepath.IsAbs(f[i+1])) {
			replaces = append(replaces, module{f[0], filepath.Join(dir, f[i+1])})
		}
	}
	return path, replaces, true
}

// addModule registers the module whose go.mod is in dir, with its local
// replace directives, and returns the module path.
func (l *loader) addModule(dir string) string {
	path, replaces, ok := parseGoMod(dir)
	if ok && !l.seenMod[dir] {
		l.seenMod[dir] = true
		l.mods = append(append(l.mods, module{path, dir}), replaces...)
	}
	return path
}

// moduleOf returns the module a directory belongs to: the nearest go.mod
// below the load's module root, else the root module itself.
func (l *loader) moduleOf(dir string) module {
	for d := dir; d != l.modRoot && strings.HasPrefix(d, l.modRoot); d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return module{l.addModule(d), d}
		}
	}
	return module{l.modPath, l.modRoot}
}

// importPath derives a package's import path from its directory.
func importPath(dir string, m module) string {
	rel, err := filepath.Rel(m.dir, dir)
	if err != nil || rel == "." {
		return m.path
	}
	rel = filepath.ToSlash(rel)
	if m.path == "" {
		return rel
	}
	return m.path + "/" + rel
}

// parseDir parses one directory into a Package registered under the
// given import path, or returns nil if it holds no Go files. Test files are
// parsed only when withTests is set. Parse failures are collected in
// l.errs (the file is skipped) so every broken file is reported at
// once.
func (l *loader) parseDir(dir, path string, withTests bool) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: dir, Path: path}
	for _, e := range entries {
		name := e.Name()
		test := strings.HasSuffix(name, "_test.go")
		if e.IsDir() || !strings.HasSuffix(name, ".go") || (test && !withTests) ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if ok, err := std.ctxt.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		full := filepath.Join(dir, name)
		astf, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			l.errs = append(l.errs, fmt.Errorf("lint: %w", err))
			continue
		}
		f := &File{Name: full, AST: astf, Test: test}
		f.indexDirectives()
		if pkg.Name == "" || (!test && !strings.HasSuffix(astf.Name.Name, "_test")) {
			pkg.Name = strings.TrimSuffix(astf.Name.Name, "_test")
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	l.pkgs[pkg.Path] = pkg
	return pkg, nil
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg := l.local(path); pkg != nil {
		if pkg.Types != nil && !pkg.Types.Complete() {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		l.check(pkg)
		return pkg.Types, nil
	}
	if first, _, _ := strings.Cut(path, "/"); strings.Contains(first, ".") {
		// Not the standard library, and no loaded module provides it.
		return nil, fmt.Errorf("package %s is outside the loaded modules", path)
	}
	return std.Import(path)
}

// stdImporter type-checks standard-library packages from source, each
// once, keyed by import path; function bodies are skipped, since only
// declarations reach the repository's packages. It is go/importer's
// "source" importer less two costs: a package already checked is
// returned before its directory is scanned again (that importer
// rescans on every import), and cgo is off, so no package runs the cgo
// tool; net and os/user check their pure-Go files instead.
type stdImporter struct {
	ctxt build.Context
	fset *token.FileSet
	pkgs map[string]*types.Package
}

func newStdImporter(fset *token.FileSet) *stdImporter {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &stdImporter{ctxt: ctxt, fset: fset, pkgs: map[string]*types.Package{}}
}

// Import implements types.Importer.
func (s *stdImporter) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: dir, the importing
// package's directory, resolves the standard library's vendored
// packages.
func (s *stdImporter) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg := s.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	bp, err := s.ctxt.Import(path, dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, len(bp.GoFiles))
	for i, name := range bp.GoFiles {
		if files[i], err = parser.ParseFile(s.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution); err != nil {
			return nil, err
		}
	}
	conf := types.Config{
		IgnoreFuncBodies: true,
		Importer:         s,
		Sizes:            types.SizesFor("gc", s.ctxt.GOARCH),
	}
	pkg, err := conf.Check(bp.ImportPath, s.fset, files, nil)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = pkg
	return pkg, nil
}

// local returns the repository package with the given import path,
// parsing it on first use, or nil if no loaded module contains it.
func (l *loader) local(path string) *Package {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg
	}
	best := -1
	for i, m := range l.mods {
		if (m.path == "" || path == m.path || strings.HasPrefix(path, m.path+"/")) &&
			(best < 0 || len(m.path) > len(l.mods[best].path)) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	m := l.mods[best]
	dir := filepath.Join(m.dir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, m.path), "/")))
	pkg, err := l.parseDir(dir, path, false)
	if err != nil {
		return nil
	}
	return pkg
}

// config returns the type-checker configuration of one unit: errors are
// collected, not fatal.
func (l *loader) config() *types.Config {
	return &types.Config{
		Importer: l,
		Error: func(err error) {
			l.errs = append(l.errs, fmt.Errorf("lint: %w", err))
		},
	}
}

// check type-checks a package's production files, once. The package
// is incomplete while its checker runs, which is how Import detects a
// cycle.
func (l *loader) check(pkg *Package) {
	if pkg.Types != nil {
		return
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg.Types = types.NewPackage(pkg.Path, pkg.Name)
	pkg.checker = types.NewChecker(l.config(), fset, pkg.Types, pkg.Info)
	pkg.checker.Files(pkg.syntax(false, false))
}

// checkTests adds the in-package test files to the package's checker,
// then checks the external _test package, if any, against the result.
// Both share the package's types.Info.
func (l *loader) checkTests(pkg *Package) {
	if files := pkg.syntax(true, false); len(files) > 0 {
		pkg.checker.Files(files)
	}
	if files := pkg.syntax(true, true); len(files) > 0 {
		xtest := types.NewPackage(pkg.Path+"_test", pkg.Name+"_test")
		types.NewChecker(l.config(), fset, xtest, pkg.Info).Files(files)
	}
	pkg.checker = nil
}

// syntax selects the package's files of one unit: production files
// (test false), in-package test files (test true, external false), or
// the external _test package's files (both true).
func (p *Package) syntax(test, external bool) []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		xtest := f.Test && f.AST.Name.Name != p.Name
		if f.Test == test && xtest == external {
			out = append(out, f.AST)
		}
	}
	return out
}
