package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/loadgen"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
	"github.com/horse-faas/horse/internal/testutil"
	"github.com/horse-faas/horse/internal/workload"
)

func scanPayload(t *testing.T) []byte {
	t.Helper()
	payload, err := json.Marshal(workload.ScanRequest{Threshold: 5000})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// registerScan deploys the Category-3 scan on every node.
func registerScan(t *testing.T, c *Cluster, spec faas.SandboxSpec) {
	t.Helper()
	if spec.VCPUs == 0 {
		spec = faas.SandboxSpec{VCPUs: 1, MemoryMB: 128}
	}
	if err := c.RegisterEverywhere(workload.NewScan(1), spec); err != nil {
		t.Fatal(err)
	}
}

// TestNewRequiresANode pins New's one sizing check: a cluster with no
// node specs is refused, whether Specs is absent or empty.
func TestNewRequiresANode(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"zero options", Options{}},
		{"empty specs", Options{Specs: []NodeSpec{}}},
	} {
		c, err := New(tc.opts)
		if err == nil || !strings.Contains(err.Error(), "need at least one node") {
			t.Errorf("%s: New = %v, %v; want the need-at-least-one-node error", tc.name, c, err)
		}
	}
}

func TestRegisterEverywhere(t *testing.T) {
	c := testCluster(t, PolicyRoundRobin, NodeSpec{}, NodeSpec{})
	registerScan(t, c, faas.SandboxSpec{})
	for _, n := range c.Nodes() {
		if _, err := n.Platform().Deployment("scan"); err != nil {
			t.Fatalf("scan missing on %s: %v", n.ID(), err)
		}
	}
	if err := c.RegisterEverywhere(workload.NewScan(1), faas.SandboxSpec{VCPUs: 1, MemoryMB: 128}); !errors.Is(err, faas.ErrAlreadyDeployed) {
		t.Fatalf("duplicate register = %v, want ErrAlreadyDeployed", err)
	}
}

func TestScaleClusterConfinesHorsePoolsToReservedNodes(t *testing.T) {
	c := testCluster(t, PolicyULLAffinity,
		NodeSpec{ULLSlots: 1}, NodeSpec{ULLSlots: 2}, NodeSpec{})
	registerScan(t, c, faas.SandboxSpec{})
	placed, err := c.ScaleCluster("scan", 10, core.Horse)
	if err != nil {
		t.Fatal(err)
	}
	if placed != 3 {
		t.Fatalf("placed %d HORSE sandboxes, want 3 (ULLSlots sum)", placed)
	}
	want := []int{1, 2, 0}
	for i, n := range c.Nodes() {
		if got := n.poolCount("scan", core.Horse); got != want[i] {
			t.Errorf("%s HORSE pool = %d, want %d", n.ID(), got, want[i])
		}
	}
}

func TestScaleClusterAdmitsAgainstNodeMemory(t *testing.T) {
	c := testCluster(t, PolicyRoundRobin, NodeSpec{MemoryMB: 256})
	registerScan(t, c, faas.SandboxSpec{VCPUs: 1, MemoryMB: 128})
	placed, err := c.ScaleCluster("scan", 10, core.Vanilla)
	if err != nil {
		t.Fatal(err)
	}
	if placed != 2 {
		t.Fatalf("placed %d sandboxes on a 256MB node with 128MB sandboxes, want 2", placed)
	}
	// Rescaling to the same total must be a no-op, not double-count the
	// entries it is replacing.
	placed, err = c.ScaleCluster("scan", 2, core.Vanilla)
	if err != nil {
		t.Fatal(err)
	}
	if placed != 2 {
		t.Fatalf("rescale placed %d, want 2", placed)
	}
}

func TestTriggerServesAndTracksPlacement(t *testing.T) {
	c := testCluster(t, PolicyRoundRobin, NodeSpec{ULLSlots: 1}, NodeSpec{ULLSlots: 1})
	registerScan(t, c, faas.SandboxSpec{})
	if _, err := c.ScaleCluster("scan", 2, core.Horse); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	inv, placement, err := c.Trigger("scan", faas.ModeHorse, scanPayload(t))
	if err != nil {
		t.Fatal(err)
	}
	if inv.Mode != faas.ModeHorse {
		t.Fatalf("served mode %v, want horse", inv.Mode)
	}
	if placement.Node != "node00" || placement.Failovers != 0 || placement.Wait != 0 {
		t.Fatalf("placement = %+v, want node00 with no failovers and no wait", placement)
	}
	if placement.Latency != inv.Total() {
		t.Fatalf("latency %v != init+exec %v on an idle node", placement.Latency, inv.Total())
	}
	if c.Nodes()[0].Served() != 1 || c.Nodes()[0].Placements() != 1 {
		t.Fatalf("node00 counters served=%d placements=%d, want 1/1", c.Nodes()[0].Served(), c.Nodes()[0].Placements())
	}
}

// TestTriggerOutputOutlivesNextTrigger pins Cluster.Trigger's ownership
// contract now that a node serves every output into one reused response
// buffer: two triggers with different thresholds on one node each return
// their own exact-size copy, and the second does not overwrite the
// first.
func TestTriggerOutputOutlivesNextTrigger(t *testing.T) {
	c := testCluster(t, PolicyRoundRobin, NodeSpec{ULLSlots: 1})
	registerScan(t, c, faas.SandboxSpec{})
	if _, err := c.ScaleCluster("scan", 1, core.Horse); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	ref := workload.NewScan(1)
	var outs, wants [][]byte
	for _, threshold := range []int{5000, 9000} {
		payload, err := json.Marshal(workload.ScanRequest{Threshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Invoke(payload)
		if err != nil {
			t.Fatal(err)
		}
		inv, placement, err := c.Trigger("scan", faas.ModeHorse, payload)
		if err != nil {
			t.Fatal(err)
		}
		if placement.Node != "node00" {
			t.Fatalf("threshold %d served on %q, want node00", threshold, placement.Node)
		}
		if len(inv.Output) != cap(inv.Output) {
			t.Fatalf("threshold %d: output has len %d, cap %d; want an exact-size copy", threshold, len(inv.Output), cap(inv.Output))
		}
		outs, wants = append(outs, inv.Output), append(wants, want)
	}
	for i := range outs {
		if !bytes.Equal(outs[i], wants[i]) {
			t.Errorf("trigger %d output changed after the node served again: got %d bytes %.40q…, want %d bytes %.40q…",
				i, len(outs[i]), outs[i], len(wants[i]), wants[i])
		}
	}
}

func TestTriggerQueueingAddsWait(t *testing.T) {
	c := testCluster(t, PolicyRoundRobin, NodeSpec{})
	if err := c.RegisterEverywhere(workload.NewThumbnail(), faas.SandboxSpec{VCPUs: 1, MemoryMB: 512}); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(workload.ThumbnailRequest{Object: "photos/a.jpg", Width: 256, Height: 256, Edge: 64})
	if err != nil {
		t.Fatal(err)
	}
	_, first, err := c.Trigger("thumbnail", faas.ModeCold, payload)
	if err != nil {
		t.Fatal(err)
	}
	if first.Wait != 0 {
		t.Fatalf("first trigger waited %v on an idle node", first.Wait)
	}
	// The cluster clock has not advanced, so the node's backlog is the
	// whole first invocation; the second trigger queues behind it.
	_, second, err := c.Trigger("thumbnail", faas.ModeCold, payload)
	if err != nil {
		t.Fatal(err)
	}
	// The backlog is the first invocation plus its re-pool housekeeping,
	// so the wait is at least the first latency (and within 1µs of it).
	if second.Wait < first.Latency || second.Wait > first.Latency+simtime.Microsecond {
		t.Fatalf("second trigger wait %v, want ≈ the first trigger's latency %v", second.Wait, first.Latency)
	}
	if second.Latency <= second.Wait {
		t.Fatalf("second trigger latency %v does not include its service time beyond wait %v", second.Latency, second.Wait)
	}
}

func TestTriggerFailsOverWhenNodeLacksCapacity(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	c := testCluster(t, PolicyRoundRobin, NodeSpec{ULLSlots: 1}, NodeSpec{ULLSlots: 1})
	registerScan(t, c, faas.SandboxSpec{})
	// Arm only node01: round-robin's first pick (node00) has no HORSE
	// pool and no fallback, so the trigger must fail over.
	if err := c.Nodes()[1].Platform().Provision("scan", 1, core.Horse); err != nil {
		t.Fatal(err)
	}
	_, placement, err := c.Trigger("scan", faas.ModeHorse, scanPayload(t))
	if err != nil {
		t.Fatal(err)
	}
	if placement.Node != "node01" || placement.Failovers != 1 {
		t.Fatalf("placement = %+v, want node01 after one failover", placement)
	}
	if got := c.FailoversByReason()[ReasonTriggerFailed]; got != 1 {
		t.Fatalf("trigger-failed failovers = %d, want 1", got)
	}
}

func TestInvokeFailureIsNotRetriedElsewhere(t *testing.T) {
	faults, err := faultinject.New(1, faultinject.Rule{Site: faultinject.SiteInvoke, Nth: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{Specs: []NodeSpec{{ULLSlots: 1}, {ULLSlots: 1}}, Policy: PolicyRoundRobin, Seed: 1, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	registerScan(t, c, faas.SandboxSpec{})
	if _, err := c.ScaleCluster("scan", 2, core.Horse); err != nil {
		t.Fatal(err)
	}
	_, _, terr := c.Trigger("scan", faas.ModeHorse, scanPayload(t))
	if !errors.Is(terr, ErrInvokeNotRetried) {
		t.Fatalf("invoke-failure trigger = %v, want ErrInvokeNotRetried", terr)
	}
	if c.Failed() != 1 {
		t.Fatalf("failed = %d, want 1", c.Failed())
	}
	if n := c.Failovers(); n != 0 {
		t.Fatalf("invocation failure caused %d failovers; user code must not be double-executed", n)
	}
}

func TestTriggerDuringDrainRehomesAndFailsOver(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	faults, err := faultinject.New(7, faultinject.Rule{Site: faultinject.SiteNodeDrain, Nth: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{
		Specs:  []NodeSpec{{ULLSlots: 2}, {ULLSlots: 2}, {ULLSlots: 2}},
		Policy: PolicyRoundRobin, Seed: 1, Faults: faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	registerScan(t, c, faas.SandboxSpec{})
	if _, err := c.ScaleCluster("scan", 3, core.Horse); err != nil {
		t.Fatal(err)
	}
	payload := scanPayload(t)
	if _, p, err := c.Trigger("scan", faas.ModeHorse, payload); err != nil || p.Node != "node00" {
		t.Fatalf("first trigger placement %+v, err %v", p, err)
	}
	// The second routing decision picks node01 and the armed drain fires
	// mid-trigger: the trigger must land elsewhere and node01's HORSE
	// capacity must re-home onto the survivors.
	_, p, err := c.Trigger("scan", faas.ModeHorse, payload)
	if err != nil {
		t.Fatal(err)
	}
	if p.Node == "node01" || p.Failovers != 1 {
		t.Fatalf("trigger-during-drain placement = %+v, want one failover away from node01", p)
	}
	if got := c.FailoversByReason()[ReasonNodeDraining]; got != 1 {
		t.Fatalf("node-draining failovers = %d, want 1", got)
	}
	drained, err := c.node("node01")
	if err != nil {
		t.Fatal(err)
	}
	if drained.Health() != Draining {
		t.Fatalf("node01 health = %v, want draining", drained.Health())
	}
	if got := drained.poolCount("scan", core.Horse); got != 0 {
		t.Fatalf("drained node still holds %d HORSE sandboxes", got)
	}
	if got := c.poolTotal("scan", core.Horse); got != 3 {
		t.Fatalf("cluster HORSE capacity after re-home = %d, want 3", got)
	}
	// Draining is sticky: no later trigger may land there.
	for i := 0; i < 6; i++ {
		_, p, err := c.Trigger("scan", faas.ModeHorse, payload)
		if err != nil {
			t.Fatal(err)
		}
		if p.Node == "node01" {
			t.Fatal("trigger placed on draining node")
		}
	}
	if c.RehomeFailures() != 0 {
		t.Fatalf("re-home failures = %d, want 0", c.RehomeFailures())
	}
}

func TestAllNodesFailedRejectsTrigger(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	faults, err := faultinject.New(3, faultinject.Rule{Site: faultinject.SiteNodeFail, Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{Specs: []NodeSpec{{ULLSlots: 1}, {ULLSlots: 1}}, Policy: PolicyLeastLoaded, Seed: 1, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	registerScan(t, c, faas.SandboxSpec{})
	if _, err := c.ScaleCluster("scan", 2, core.Horse); err != nil {
		t.Fatal(err)
	}
	_, placement, terr := c.Trigger("scan", faas.ModeHorse, scanPayload(t))
	if !errors.Is(terr, ErrNoNodes) {
		t.Fatalf("trigger on all-failing cluster = %v, want ErrNoNodes", terr)
	}
	if placement.NodeIndex != -1 || placement.Failovers != 2 {
		t.Fatalf("placement = %+v, want rejection after 2 failovers", placement)
	}
	if c.Rejected() != 1 {
		t.Fatalf("rejected = %d, want 1", c.Rejected())
	}
	if got := c.FailoversByReason()[ReasonNodeFailed]; got != 2 {
		t.Fatalf("node-failed failovers = %d, want 2", got)
	}
	for _, n := range c.Nodes() {
		if n.Health() != Failed {
			t.Fatalf("%s health = %v, want failed", n.ID(), n.Health())
		}
	}
	// The cluster stays rejecting — and stays deterministic — afterward.
	if _, _, terr := c.Trigger("scan", faas.ModeHorse, scanPayload(t)); !errors.Is(terr, ErrNoNodes) {
		t.Fatalf("second trigger = %v, want ErrNoNodes", terr)
	}
}

func TestRebalanceAfterReapRestoresSpread(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	c := testCluster(t, PolicyRoundRobin, NodeSpec{}, NodeSpec{})
	registerScan(t, c, faas.SandboxSpec{})
	if _, err := c.ScaleCluster("scan", 4, core.Vanilla); err != nil {
		t.Fatal(err)
	}
	// node00's local clock runs ahead past the keep-alive window, so the
	// reaper destroys its pool while node01's stays warm.
	c.Nodes()[0].Platform().Clock().Advance(2 * faas.DefaultKeepAlive)
	reaped, err := c.Reap()
	if err != nil {
		t.Fatal(err)
	}
	if reaped != 2 {
		t.Fatalf("reaped %d, want 2 (node00's idle pool)", reaped)
	}
	if got := c.poolTotal("scan", core.Vanilla); got != 2 {
		t.Fatalf("pool total after reap = %d, want 2", got)
	}
	// Rebalance must spread the surviving capacity back out, shrinking
	// node01 and re-provisioning node00 — the interleaving that used to
	// be impossible to express on one node.
	if err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if got := n.poolCount("scan", core.Vanilla); got != 1 {
			t.Fatalf("%s pool after rebalance = %d, want 1", n.ID(), got)
		}
	}
	// An immediate second reap finds nothing idle: the rebalanced
	// entries are freshly paused.
	reaped, err = c.Reap()
	if err != nil {
		t.Fatal(err)
	}
	if reaped != 0 {
		t.Fatalf("second reap destroyed %d fresh sandboxes", reaped)
	}
}

func TestDrainRequiresUpNode(t *testing.T) {
	c := testCluster(t, PolicyRoundRobin, NodeSpec{}, NodeSpec{})
	if err := c.Fail("node00"); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain("node00"); !errors.Is(err, ErrNodeNotUp) {
		t.Fatalf("drain of failed node = %v, want ErrNodeNotUp", err)
	}
	if err := c.Drain("node99"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("drain of unknown node = %v, want ErrUnknownNode", err)
	}
}

// runScanCluster builds a fresh cluster under the given policy and
// fault spec, provisions HORSE pools on the reserved nodes, and runs
// the standard regression workload.
func runScanCluster(t *testing.T, policy string, seed int64, faultRules []faultinject.Rule, metrics *telemetry.Registry) Report {
	t.Helper()
	var faults *faultinject.Injector
	if len(faultRules) > 0 {
		var err error
		faults, err = faultinject.New(seed, faultRules...)
		if err != nil {
			t.Fatal(err)
		}
	}
	specs := make([]NodeSpec, 8)
	for i := range specs {
		if i < 2 {
			specs[i].ULLSlots = 2
		}
	}
	c, err := New(Options{
		Specs:    specs,
		Policy:   policy,
		Seed:     seed,
		Faults:   faults,
		Metrics:  metrics,
		Fallback: faas.FallbackConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	registerScan(t, c, faas.SandboxSpec{})
	if _, err := c.ScaleCluster("scan", 4, core.Horse); err != nil {
		t.Fatal(err)
	}
	ws, err := loadgen.ParseWorkloads("scan=poisson:rate=1000/s,mode=horse")
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run(RunConfig{
		Workloads: ws,
		Horizon:   200 * simtime.Millisecond,
		Payloads:  map[string][]byte{"scan": scanPayload(t)},
		SLO:       map[string]simtime.Duration{"scan": 1500 * simtime.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestULLAffinityBeatsRoundRobinUnderNodeFailure is the checked-in SLO
// regression: on a seeded run with a node failure mid-stream, the
// ull-affinity policy must show nonzero failovers and strictly better
// uLL SLO attainment than round-robin, because round-robin keeps
// steering HORSE triggers onto nodes with no HORSE pools, degrading
// them to warm/restore starts that blow the µs-scale budget.
func TestULLAffinityBeatsRoundRobinUnderNodeFailure(t *testing.T) {
	rules := []faultinject.Rule{{Site: faultinject.SiteNodeFail, Nth: 20}}
	affinity := runScanCluster(t, PolicyULLAffinity, 42, rules, nil)
	roundRobin := runScanCluster(t, PolicyRoundRobin, 42, rules, nil)
	if affinity.Failovers == 0 {
		t.Fatal("ull-affinity run recorded no failovers despite the armed node failure")
	}
	if roundRobin.Failovers == 0 {
		t.Fatal("round-robin run recorded no failovers despite the armed node failure")
	}
	if affinity.Arrivals == 0 || affinity.Arrivals != roundRobin.Arrivals {
		t.Fatalf("arrival streams diverged: %d vs %d", affinity.Arrivals, roundRobin.Arrivals)
	}
	if !(affinity.ULLAttainment > roundRobin.ULLAttainment) {
		t.Fatalf("uLL attainment: ull-affinity %.4f must be strictly better than round-robin %.4f",
			affinity.ULLAttainment, roundRobin.ULLAttainment)
	}
	if affinity.ULLAttainment < 0.9 {
		t.Fatalf("ull-affinity attainment %.4f, want ≥0.9 with reserved HORSE capacity", affinity.ULLAttainment)
	}
}

func TestRunReportIsByteIdenticalAcrossRuns(t *testing.T) {
	rules := []faultinject.Rule{{Site: faultinject.SiteNodeFail, Nth: 30}}
	render := func(seed int64) (string, string) {
		report := runScanCluster(t, PolicyULLAffinity, seed, rules, nil)
		var csv, js bytes.Buffer
		if err := report.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := report.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return csv.String(), js.String()
	}
	csv1, js1 := render(42)
	csv2, js2 := render(42)
	if csv1 != csv2 {
		t.Fatalf("same seed produced different CSV reports:\n--- a\n%s\n--- b\n%s", csv1, csv2)
	}
	if js1 != js2 {
		t.Fatal("same seed produced different JSON reports")
	}
	csv3, _ := render(43)
	if csv1 == csv3 {
		t.Fatal("different seeds produced identical CSV reports")
	}
}

func TestRunMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	report := runScanCluster(t, PolicyULLAffinity, 42, nil, reg)
	if got := reg.Counter("loadgen_arrivals_total", "function", "scan").Value(); got != report.Arrivals {
		t.Errorf("loadgen_arrivals_total = %d, want %d", got, report.Arrivals)
	}
	var triggers uint64
	for i := 0; i < 8; i++ {
		id := []string{"node00", "node01", "node02", "node03", "node04", "node05", "node06", "node07"}[i]
		triggers += reg.Counter("cluster_triggers_total", "node", id, "policy", PolicyULLAffinity).Value()
	}
	if triggers != report.Served {
		t.Errorf("cluster_triggers_total sum = %d, want served %d", triggers, report.Served)
	}
	if report.Served == 0 {
		t.Fatal("no triggers served")
	}
}

func TestRunRejectsUnregisteredWorkload(t *testing.T) {
	c := testCluster(t, PolicyRoundRobin, NodeSpec{})
	ws, err := loadgen.ParseWorkloads("ghost=poisson:rate=10/s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(RunConfig{Workloads: ws, Horizon: simtime.Millisecond}); err == nil {
		t.Fatal("Run accepted a workload for an unregistered function")
	}
}
