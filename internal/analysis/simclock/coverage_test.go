package simclock_test

import (
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/horse-faas/horse/internal/analysis/lint"
	"github.com/horse-faas/horse/internal/analysis/simclock"
)

const simtimePath = "github.com/horse-faas/horse/internal/simtime"

// TestSimPackagesCoverSimtimeImporters replaces hand-auditing of the
// DefaultSimPackages list: every internal package whose production code
// imports internal/simtime is a simulation package and must be governed
// by the wallclock invariant. A new simulation package that imports the
// virtual clock but is missing from the list fails here, not in review.
func TestSimPackagesCoverSimtimeImporters(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := lint.Load(fset, filepath.Join("..", "..", ".."), "./internal/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages; wrong root?")
	}

	seen := map[string]bool{}
	for _, pkg := range pkgs {
		seen[pkg.Path] = true
		// The analysis tree mentions simtime's path as data (analyzer
		// configuration), never runs on the virtual clock itself.
		if strings.HasPrefix(pkg.Path, "github.com/horse-faas/horse/internal/analysis") {
			continue
		}
		importsSimtime := false
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			for _, imp := range f.AST.Imports {
				if imp.Path.Value == strconv.Quote(simtimePath) {
					importsSimtime = true
				}
			}
		}
		if importsSimtime && !lint.PathMatches(pkg.Path, simclock.DefaultSimPackages) {
			t.Errorf("package %s imports internal/simtime but is not in simclock.DefaultSimPackages; add it so the wallclock invariant governs it", pkg.Path)
		}
	}

	// The list must not rot either: every entry names a package that
	// still exists.
	for _, p := range simclock.DefaultSimPackages {
		if !seen[p] {
			t.Errorf("simclock.DefaultSimPackages entry %s does not match any loaded package; remove or fix it", p)
		}
	}
}
