// Package analysistest runs lint analyzers over testdata packages and
// checks their diagnostics against expectations written in the sources,
// mirroring golang.org/x/tools/go/analysis/analysistest (which the
// hermetic build cannot fetch).
//
// An expectation is a trailing comment of the form
//
//	// want "regexp" "another regexp"
//
// each quoted pattern must match, in order of appearance, a diagnostic
// reported on that line. Lines without a want comment must produce no
// diagnostics, and every want pattern must be consumed.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/horse-faas/horse/internal/analysis/lint"
)

// Run loads the packages selected by patterns (default "./...") under
// the testdata directory — import paths are relative to testdata — runs
// the analyzer, and reports mismatches through t.
func Run(t *testing.T, testdata string, a *lint.Analyzer, patterns ...string) {
	t.Helper()
	pkgs, err := lint.LoadAsModule(testdata, "", patterns...)
	if err != nil {
		t.Fatalf("loading %s: %v", testdata, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages under %s match %v", testdata, patterns)
	}
	diags, err := lint.Run(pkgs, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, pkgs)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Position.Filename, d.Position.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", d.Position, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s: no diagnostic matching %q", key, w.re)
			}
		}
	}
}

type want struct {
	re   *regexp.Regexp
	used bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// collectWants extracts the want expectations of every file, keyed by
// "filename:line".
func collectWants(t *testing.T, pkgs []*lint.Package) map[string][]*want {
	t.Helper()
	wants := make(map[string][]*want)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.AST.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					line := lint.Fset().Position(c.Pos()).Line
					key := fmt.Sprintf("%s:%d", f.Name, line)
					for _, pat := range splitQuoted(t, f.Name, line, m[1]) {
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", f.Name, line, pat, err)
						}
						wants[key] = append(wants[key], &want{re: re})
					}
				}
			}
		}
	}
	return wants
}

// splitQuoted parses a sequence of Go-quoted strings.
func splitQuoted(t *testing.T, file string, line int, s string) []string {
	t.Helper()
	var out []string
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(s) {
		q, err := strconv.QuotedPrefix(s)
		if err != nil {
			t.Fatalf("%s:%d: malformed want clause at %q: %v", file, line, s, err)
		}
		pat, _ := strconv.Unquote(q) // QuotedPrefix accepted it
		out = append(out, pat)
		s = s[len(q):]
	}
	return out
}
