package summary_test

import (
	"strings"
	"testing"

	"github.com/horse-faas/horse/internal/analysis/callgraph"
	"github.com/horse-faas/horse/internal/analysis/lint"
	"github.com/horse-faas/horse/internal/analysis/summary"
)

func load(t *testing.T) (*lint.Program, *summary.Set) {
	t.Helper()
	pkgs, err := lint.LoadAsModule("testdata", "t")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	prog := lint.NewProgram(pkgs)
	set := summary.Compute(prog, summary.Config{
		ErrorSeeds:    []string{"BeginPause"},
		AllowAnalyzer: "hotpath",
	})
	return prog, set
}

func facts(t *testing.T, s *summary.Set, id string) *summary.Facts {
	t.Helper()
	n := s.Graph.Nodes[id]
	if n == nil {
		t.Fatalf("node %s missing from graph", id)
	}
	return s.Facts(n)
}

func TestAllocationFacts(t *testing.T) {
	_, s := load(t)
	cases := []struct {
		id        string
		allocates bool
	}{
		{"t/s.leafAlloc", true},
		{"t/s.viaCall", true},
		{"t/s.clean", false},
		{"t/s.locker", false},
		{"t/s.charger", false},
		{"t/s.allowedAlloc", false}, // allow directive excludes the site
		{"t/s.callsAllowed", false}, // and the exclusion reaches callers
		{"t/s.recA", true},          // mutual recursion settles via the SCC
		{"t/s.recB", true},
		{"t/s.closureMaker", true}, // escaping literal
	}
	for _, c := range cases {
		if got := facts(t, s, c.id).Allocates; got != c.allocates {
			t.Errorf("%s: Allocates = %v, want %v (why: %s)",
				c.id, got, c.allocates, facts(t, s, c.id).AllocWhy)
		}
	}
	// The transitive witness names the callee.
	if why := facts(t, s, "t/s.viaCall").AllocWhy; !strings.Contains(why, "leafAlloc") {
		t.Errorf("viaCall witness %q does not name the callee", why)
	}
}

func TestLockAndClockFacts(t *testing.T) {
	_, s := load(t)
	if !facts(t, s, "t/s.locker").AcquiresLock {
		t.Error("locker: AcquiresLock = false")
	}
	if facts(t, s, "t/s.clean").AcquiresLock {
		t.Error("clean: AcquiresLock = true")
	}
	if !facts(t, s, "t/s.charger").ChargesClock {
		t.Error("charger: ChargesClock = false")
	}
	if !facts(t, s, "t/s.viaCharger").ChargesClock {
		t.Error("viaCharger: ChargesClock = false (transitive)")
	}
	if facts(t, s, "t/s.clean").ChargesClock {
		t.Error("clean: ChargesClock = true")
	}
}

func TestErrorPropagation(t *testing.T) {
	_, s := load(t)
	if !facts(t, s, "t/s.propagates").ReturnsSeedErr {
		t.Error("propagates: ReturnsSeedErr = false")
	}
	if !facts(t, s, "t/s.wraps").ReturnsSeedErr {
		t.Error("wraps: ReturnsSeedErr = false (transitive)")
	}
	if facts(t, s, "t/s.swallows").ReturnsSeedErr {
		t.Error("swallows: ReturnsSeedErr = true (no error result)")
	}
}

func TestCallQueries(t *testing.T) {
	prog, s := load(t)
	g := callgraph.Of(prog)
	via := g.Nodes["t/s.viaCharger"]
	var found bool
	for _, e := range via.Out {
		if e.Call == nil {
			continue
		}
		if ok, who := s.CallMayCharge(e.Call); ok {
			if !strings.Contains(who, "charger") {
				t.Errorf("CallMayCharge witness %q", who)
			}
			found = true
		}
	}
	if !found {
		t.Error("viaCharger: no call site reported as charging")
	}
}
