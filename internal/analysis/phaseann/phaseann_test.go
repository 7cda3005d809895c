package phaseann_test

import (
	"strings"
	"testing"

	"github.com/horse-faas/horse/internal/analysis/analysistest"
	"github.com/horse-faas/horse/internal/analysis/lint"
	"github.com/horse-faas/horse/internal/analysis/phaseann"
)

func TestPhaseann(t *testing.T) {
	analysistest.Run(t, "testdata", phaseann.Default(), "./anno")
}

func TestHotpathAnnotations(t *testing.T) {
	analysistest.Run(t, "testdata", phaseann.Default(), "./hotanno")
}

// strays runs the analyzer over one fixture and asserts that it reports
// exactly two diagnostics, each containing want. Stray diagnostics land
// on the directive comment lines, where want expectations cannot be
// written.
func strays(t *testing.T, pattern, want string) {
	t.Helper()
	pkgs, err := lint.LoadAsModule("testdata", "", pattern)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := lint.Run(pkgs, []*lint.Analyzer{phaseann.Default()})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 strays: %v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, want) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func TestStrays(t *testing.T) {
	strays(t, "./stray", "ownership directive annotates nothing")
}

func TestHotpathStrays(t *testing.T) {
	strays(t, "./hotstray", "stray //horselint:hotpath directive")
}
