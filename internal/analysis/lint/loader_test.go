package lint_test

import (
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/horse-faas/horse/internal/analysis/lint"
)

func write(t *testing.T, path, src string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadAggregatesParseErrors pins the aggregation contract: every
// broken file in the tree is reported with its position in a single
// load, and parseable packages do not mask the failure.
func TestLoadAggregatesParseErrors(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "ok.go"), "package a\n\nfunc ok() {}\n")
	write(t, filepath.Join(dir, "broken.go"), "package a\nfunc {\n")
	write(t, filepath.Join(dir, "sub", "alsobroken.go"), "package b\nvar = 1\n")

	_, err := lint.Load(dir)
	if err == nil {
		t.Fatal("Load of a tree with broken files should fail")
	}
	le, ok := err.(lint.LoadErrors)
	if !ok {
		t.Fatalf("error type = %T, want lint.LoadErrors", err)
	}
	if len(le) != 2 {
		t.Fatalf("got %d errors, want 2: %v", len(le), le)
	}
	msg := le.Error()
	for _, wantPos := range []string{"broken.go:2", "alsobroken.go:2"} {
		if !strings.Contains(msg, wantPos) {
			t.Errorf("aggregated message missing position %q:\n%s", wantPos, msg)
		}
	}
}

// TestRecursiveWalkSkipsTestdata pins the go-tool convention the
// analysistest harness depends on: a recursive pattern never descends
// into testdata, so a malformed directive planted there (analyzer
// fixtures are full of deliberate violations) is invisible to a
// repo-wide run — but an explicit pattern still loads it.
func TestRecursiveWalkSkipsTestdata(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "ok.go"), "package a\n\nfunc ok() {}\n")
	write(t, filepath.Join(dir, "testdata", "fixture", "f.go"),
		"package fixture\n\n//horselint:allow-wallclock\nvar x int\n")

	pkgs, err := lint.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1 (testdata skipped): %v", len(pkgs), pkgs)
	}
	if diags := lint.CheckDirectives(pkgs, map[string]bool{"wallclock": true}); len(diags) != 0 {
		t.Errorf("directive inside testdata leaked into the recursive walk: %v", diags)
	}

	pkgs, err = lint.Load(dir, "./testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("explicit pattern: got %d packages, want 1", len(pkgs))
	}
	diags := lint.CheckDirectives(pkgs, map[string]bool{"wallclock": true})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "needs a reason") {
		t.Errorf("explicit pattern should surface the bare directive, got %v", diags)
	}
}

// TestLoadReportsTypeErrors pins that a type error fails the load with
// its file:line:col position, like a parse error.
func TestLoadReportsTypeErrors(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "ok.go"), "package a\n\nfunc ok() int { return 1 }\n")
	write(t, filepath.Join(dir, "typo.go"), "package a\n\nfunc bad() string {\n\treturn ok()\n}\n")

	_, err := lint.Load(dir)
	le, ok := err.(lint.LoadErrors)
	if !ok || len(le) != 1 {
		t.Fatalf("Load error = %v (%T), want one lint.LoadErrors entry", err, err)
	}
	if msg := le.Error(); !strings.Contains(msg, "typo.go:4:9: ") || !strings.Contains(msg, "cannot use ok()") {
		t.Errorf("type error lacks its file:line:col position or cause: %s", msg)
	}
}

// TestLoadChecksTestsLikeVet pins the test-file model: in-package test
// files extend their package for its own external tests, but importers
// see only production files.
func TestLoadChecksTestsLikeVet(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "go.mod"), "module example.com/m\n")
	write(t, filepath.Join(dir, "a", "a.go"), "package a\n\nfunc Prod() int { return 1 }\n")
	write(t, filepath.Join(dir, "a", "export_test.go"), "package a\n\nfunc TestOnly() int { return Prod() }\n")
	write(t, filepath.Join(dir, "a", "x_test.go"), "package a_test\n\nimport \"example.com/m/a\"\n\nvar _ = a.TestOnly()\n")
	write(t, filepath.Join(dir, "b", "b.go"), "package b\n\nimport \"example.com/m/a\"\n\nvar _ = a.TestOnly()\n")

	_, err := lint.Load(dir)
	le, ok := err.(lint.LoadErrors)
	if !ok || len(le) != 1 || !strings.Contains(le.Error(), filepath.Join("b", "b.go")+":5:") {
		t.Fatalf("Load error = %v, want exactly one error, in b/b.go", err)
	}
}

// TestLoadFollowsLocalReplace pins that a nested module reaches its
// parent through a local replace directive, without a module cache.
func TestLoadFollowsLocalReplace(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "go.mod"), "module example.com/root\n")
	write(t, filepath.Join(dir, "lib", "lib.go"), "package lib\n\nfunc V() int { return 1 }\n")
	write(t, filepath.Join(dir, "tool", "go.mod"), "module example.com/tool\n\nrequire example.com/root v0.0.0\n\nreplace example.com/root => ../\n")
	write(t, filepath.Join(dir, "tool", "main.go"), "package main\n\nimport \"example.com/root/lib\"\n\nfunc main() { _ = lib.V() }\n")

	pkgs, err := lint.Load(filepath.Join(dir, "tool"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "example.com/tool" || pkgs[0].Types == nil {
		t.Fatalf("packages = %v, want the checked example.com/tool", pkgs)
	}
}

// exported renders a package's exported API, one object per line:
// package-level objects in name order, each named type followed by its
// methods.
func exported(p *types.Package) string {
	var b strings.Builder
	qual := types.RelativeTo(p)
	for _, name := range p.Scope().Names() {
		obj := p.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		b.WriteString(types.ObjectString(obj, qual) + "\n")
		if named, ok := obj.Type().(*types.Named); ok {
			for i := range named.NumMethods() {
				b.WriteString("\t" + types.ObjectString(named.Method(i), qual) + "\n")
			}
		}
	}
	return b.String()
}

// TestLoadSharesStandardLibrary pins the process-wide cache: a second
// load of the same tree re-checks the repository package, to an equal
// but distinct result, and hands it the very standard-library package
// the first load checked.
func TestLoadSharesStandardLibrary(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "go.mod"), "module example.com/m\n")
	write(t, filepath.Join(dir, "a", "a.go"), "package a\n\nimport \"strings\"\n\n// Up upper-cases s.\nfunc Up(s string) string { return strings.ToUpper(s) }\n")
	load := func() *types.Package {
		t.Helper()
		pkgs, err := lint.Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) != 1 {
			t.Fatalf("got %d packages, want 1", len(pkgs))
		}
		return pkgs[0].Types
	}
	first, second := load(), load()
	if first == second {
		t.Error("the second load reused the repository package; every load must re-check it")
	}
	if got, want := exported(second), exported(first); got != want || want == "" {
		t.Errorf("second load's API differs:\n%s\nfirst load's:\n%s", got, want)
	}
	std := func(p *types.Package) *types.Package {
		for _, imp := range p.Imports() {
			if imp.Path() == "strings" {
				return imp
			}
		}
		t.Fatalf("%s does not import strings", p.Path())
		return nil
	}
	if std(first) != std(second) {
		t.Error("the two loads checked package strings separately; the standard library is checked once per process")
	}
}

// TestConcurrentLoads pins that loads from several goroutines share the
// process-wide importer safely (run it under -race).
func TestConcurrentLoads(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "go.mod"), "module example.com/m\n")
	write(t, filepath.Join(dir, "a", "a.go"), "package a\n\nimport \"sort\"\n\nfunc S(x []int) { sort.Ints(x) }\n")
	errs := make(chan error, 2)
	for range 2 {
		go func() {
			_, err := lint.Load(dir, "./...")
			errs <- err
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestStdlibCheckDeterministic is the uncached check a process skips
// after its first load: a fresh copy of the loader's standard-library
// importer and go/importer's "source" importer, the reference it
// replaces, each check the same packages from source into a file set of
// their own, and must agree on every exported declaration.
func TestStdlibCheckDeterministic(t *testing.T) {
	ours := lint.NewStdImporter()
	ref := importer.ForCompiler(token.NewFileSet(), "source", nil)
	for _, path := range []string{"strings", "sort", "sync"} {
		a, err := ours.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ref.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		if ea, eb := exported(a), exported(b); ea != eb || ea == "" {
			t.Errorf("%s: exported scopes differ between two checks:\n%s\n---\n%s", path, ea, eb)
		}
	}
}
