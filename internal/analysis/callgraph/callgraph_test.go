package callgraph_test

import (
	"testing"

	"github.com/horse-faas/horse/internal/analysis/callgraph"
	"github.com/horse-faas/horse/internal/analysis/lint"
)

// buildTestdata loads the testdata module (import paths rooted at "t")
// and builds its call graph.
func buildTestdata(t *testing.T) *callgraph.Graph {
	t.Helper()
	pkgs, err := lint.LoadAsModule("testdata", "t")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return callgraph.Build(pkgs)
}

// TestGoldenDump pins the whole-graph rendering: resolution kinds,
// FuncLit nodes and edges, method values, single-implementation
// interface dispatch, method-set fan-out that skips a same-named method
// of a non-implementing type, promotion through embedding, generic
// instantiation, and the mutual-recursion SCC.
func TestGoldenDump(t *testing.T) {
	want := `t/a.f
  -> t/a.g static
  -> t/b.Exported static
  -> fmt.Println external
  -> t/a.f$1 closure
  -> fn dynamic
  -> t/a.f$2 static
t/a.g
t/a.ping
  -> t/a.pong static
t/a.pong
  -> t/a.ping static
t/b.(impl).Dispatch
t/b.Run
  -> t/b.(impl).Dispatch iface
t/b.Exported
t/b.MethodValue
  -> t/b.(impl).Dispatch ref
t/b.(small).Size
t/b.(big).Size
t/b.(other).Size
t/b.Total
  -> t/b.(big).Size iface
  -> t/b.(small).Size iface
t/b.Promoted
  -> t/b.(small).Size method
t/b.Identity
t/b.Instances
  -> t/b.Identity static
  -> t/b.Identity static
t/a.f$1
  -> t/a.g static
t/a.f$2
  -> t/b.Exported static
scc [t/a.ping t/a.pong]
`
	got := buildTestdata(t).Dump()
	if got != want {
		t.Errorf("dump mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSCCOrder checks the condensation is bottom-up: every resolved
// edge points into the same or an earlier component.
func TestSCCOrder(t *testing.T) {
	g := buildTestdata(t)
	for _, n := range g.Order {
		for _, e := range n.Out {
			if e.Callee == nil {
				continue
			}
			if e.Callee.SCC > n.SCC {
				t.Errorf("%s -> %s: callee SCC %d after caller SCC %d",
					n.ID, e.Callee.ID, e.Callee.SCC, n.SCC)
			}
		}
	}
	// The mutually recursive pair shares one component.
	ping, pong := g.Nodes["t/a.ping"], g.Nodes["t/a.pong"]
	if ping == nil || pong == nil {
		t.Fatal("ping/pong nodes missing")
	}
	if ping.SCC != pong.SCC {
		t.Errorf("ping SCC %d != pong SCC %d", ping.SCC, pong.SCC)
	}
}

// TestLookups covers the secondary indexes analyzers rely on.
func TestLookups(t *testing.T) {
	g := buildTestdata(t)
	run := g.Nodes["t/b.Run"]
	if run == nil {
		t.Fatal("t/b.Run missing")
	}
	if g.NodeOf(run.Decl) != run {
		t.Error("NodeOf(decl) did not round-trip")
	}
	var calls int
	for _, e := range run.Out {
		if e.Call != nil {
			if got := g.EdgesAt(e.Call); len(got) == 0 {
				t.Errorf("EdgesAt returned nothing for call in %s", run.ID)
			}
			calls++
		}
	}
	if calls == 0 {
		t.Error("t/b.Run has no call edges")
	}
}
