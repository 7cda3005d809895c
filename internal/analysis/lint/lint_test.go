package lint_test

import (
	"strings"
	"testing"

	"github.com/horse-faas/horse/internal/analysis/lint"
)

func TestPathMatches(t *testing.T) {
	prefixes := []string{"example.com/mod/internal/vmm", "example.com/mod/internal/core"}
	for path, want := range map[string]bool{
		"example.com/mod/internal/vmm":      true,
		"example.com/mod/internal/vmm/sub":  true,
		"example.com/mod/internal/vmmextra": false,
		"example.com/mod/internal/faas":     false,
	} {
		if got := lint.PathMatches(path, prefixes); got != want {
			t.Errorf("PathMatches(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestCheckDirectives(t *testing.T) {
	pkgs, err := lint.LoadAsModule("testdata", "")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.CheckDirectives(pkgs, map[string]bool{"wallclock": true})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "needs a reason") {
		t.Errorf("first diagnostic = %q, want bare-directive report", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, `unknown analyzer "nosuchthing"`) {
		t.Errorf("second diagnostic = %q, want unknown-analyzer report", diags[1].Message)
	}
}

func TestLoadResolvesModulePath(t *testing.T) {
	pkgs, err := lint.Load(".", "./testdata/directives")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	want := "github.com/horse-faas/horse/internal/analysis/lint/testdata/directives"
	if pkgs[0].Path != want {
		t.Errorf("package path = %q, want %q", pkgs[0].Path, want)
	}
}
