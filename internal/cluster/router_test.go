package cluster

import (
	"errors"
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
)

// testCluster builds a cluster from explicit specs with no faults and
// no metrics.
func testCluster(t *testing.T, policy string, specs ...NodeSpec) *Cluster {
	t.Helper()
	c, err := New(Options{Specs: specs, Policy: policy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func pickN(t *testing.T, c *Cluster, fn string, ull bool, n int) []string {
	t.Helper()
	var out []string
	for i := 0; i < n; i++ {
		node, err := c.router.Pick(c, fn, ull, nil, c.clock.Now())
		if err != nil {
			t.Fatalf("pick %d: %v", i, err)
		}
		out = append(out, node.ID())
	}
	return out
}

func TestRoundRobinRotatesAndSkipsUnhealthy(t *testing.T) {
	c := testCluster(t, PolicyRoundRobin, NodeSpec{}, NodeSpec{}, NodeSpec{})
	got := pickN(t, c, "scan", true, 4)
	want := []string{"node00", "node01", "node02", "node00"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation = %v, want %v", got, want)
		}
	}
	if err := c.Fail("node01"); err != nil {
		t.Fatal(err)
	}
	got = pickN(t, c, "scan", true, 3)
	for _, id := range got {
		if id == "node01" {
			t.Fatalf("round-robin picked failed node: %v", got)
		}
	}
}

func TestRoundRobinAllDown(t *testing.T) {
	c := testCluster(t, PolicyRoundRobin, NodeSpec{}, NodeSpec{})
	if err := c.Fail("node00"); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail("node01"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.router.Pick(c, "scan", true, nil, c.clock.Now()); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("pick on dead cluster = %v, want ErrNoNodes", err)
	}
}

func TestLeastLoadedPicksSmallestBacklog(t *testing.T) {
	c := testCluster(t, PolicyLeastLoaded, NodeSpec{}, NodeSpec{}, NodeSpec{})
	// Give node00 and node01 backlog by running their local clocks ahead.
	c.nodes[0].platform.Clock().Advance(3 * simtime.Millisecond)
	c.nodes[1].platform.Clock().Advance(1 * simtime.Millisecond)
	node, err := c.router.Pick(c, "scan", false, nil, c.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if node.ID() != "node02" {
		t.Fatalf("least-loaded picked %s, want node02", node.ID())
	}
	// Exclude the idle node: the next-least-lagged wins.
	node, err = c.router.Pick(c, "scan", false, map[int]bool{2: true}, c.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if node.ID() != "node01" {
		t.Fatalf("least-loaded with exclusion picked %s, want node01", node.ID())
	}
}

func TestULLAffinityPinsFunctionToOneReservedNode(t *testing.T) {
	c := testCluster(t, PolicyULLAffinity,
		NodeSpec{ULLSlots: 2}, NodeSpec{ULLSlots: 2}, NodeSpec{}, NodeSpec{})
	picks := pickN(t, c, "scan", true, 10)
	first := picks[0]
	if first != "node00" && first != "node01" {
		t.Fatalf("uLL function pinned to unreserved node %s", first)
	}
	for _, id := range picks {
		if id != first {
			t.Fatalf("idle-cluster picks moved: %v", picks)
		}
	}
	// A different function may pin elsewhere, but stays pinned too.
	other := pickN(t, c, "firewall", true, 5)
	for _, id := range other {
		if id != other[0] {
			t.Fatalf("idle-cluster picks moved for firewall: %v", other)
		}
	}
}

func TestULLAffinitySteersBackgroundOffReservedNodes(t *testing.T) {
	c := testCluster(t, PolicyULLAffinity,
		NodeSpec{ULLSlots: 2}, NodeSpec{}, NodeSpec{})
	for _, id := range pickN(t, c, "thumbnail", false, 6) {
		if id == "node00" {
			t.Fatal("non-uLL trigger placed on the reserved node while unreserved nodes are up")
		}
	}
	// With every unreserved node down, background traffic may spill onto
	// the reserved node rather than be rejected.
	if err := c.Fail("node01"); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail("node02"); err != nil {
		t.Fatal(err)
	}
	node, err := c.router.Pick(c, "thumbnail", false, nil, c.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if node.ID() != "node00" {
		t.Fatalf("background spill picked %s, want node00", node.ID())
	}
}

func TestULLAffinityBoundedLoadSpillsOffHotNode(t *testing.T) {
	c := testCluster(t, PolicyULLAffinity,
		NodeSpec{ULLSlots: 2}, NodeSpec{ULLSlots: 2}, NodeSpec{ULLSlots: 2})
	pinned, err := c.router.Pick(c, "scan", true, nil, c.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	// Push the pinned node's backlog past the bound: with three reserved
	// nodes the threshold is max(100µs, 2·lag/3), so 1ms of lag spills.
	pinned.platform.Clock().Advance(simtime.Millisecond)
	spilled, err := c.router.Pick(c, "scan", true, nil, c.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if spilled.ID() == pinned.ID() {
		t.Fatalf("bounded load kept %s despite 1ms backlog", pinned.ID())
	}
	if !spilled.ULLReserved() {
		t.Fatalf("spill left the reserved set for %s", spilled.ID())
	}
	// Below the minimum headroom the pin must hold (no spill thrash on
	// an idle cluster).
	c2 := testCluster(t, PolicyULLAffinity,
		NodeSpec{ULLSlots: 2}, NodeSpec{ULLSlots: 2}, NodeSpec{ULLSlots: 2})
	pinned2, err := c2.router.Pick(c2, "scan", true, nil, c2.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	pinned2.platform.Clock().Advance(50 * simtime.Microsecond)
	again, err := c2.router.Pick(c2, "scan", true, nil, c2.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if again.ID() != pinned2.ID() {
		t.Fatalf("pin moved from %s to %s under 50µs backlog (below min headroom)", pinned2.ID(), again.ID())
	}
}

func TestULLAffinityFailsOverAcrossReservedNodes(t *testing.T) {
	c := testCluster(t, PolicyULLAffinity,
		NodeSpec{ULLSlots: 2}, NodeSpec{ULLSlots: 2}, NodeSpec{})
	pinned, err := c.router.Pick(c, "scan", true, nil, c.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(pinned.ID()); err != nil {
		t.Fatal(err)
	}
	next, err := c.router.Pick(c, "scan", true, nil, c.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if next.ID() == pinned.ID() || !next.ULLReserved() {
		t.Fatalf("failover from %s landed on %s", pinned.ID(), next.ID())
	}
	// With every reserved node gone, availability beats affinity: uLL
	// traffic spills to the unreserved node.
	if err := c.Fail(next.ID()); err != nil {
		t.Fatal(err)
	}
	last, err := c.router.Pick(c, "scan", true, nil, c.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if last.ID() != "node02" {
		t.Fatalf("all-reserved-down spill picked %s, want node02", last.ID())
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	if _, err := New(Options{Specs: []NodeSpec{{}}, Policy: "random"}); !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("New with bogus policy = %v, want ErrUnknownPolicy", err)
	}
}
