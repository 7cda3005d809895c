package cluster

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/loadgen"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/tenant"
	"github.com/horse-faas/horse/internal/trigtrace"
)

// tracedScanRun is runScanCluster but returns the cluster too, so tests
// can inspect the trace recorder Run armed.
func tracedScanRun(t *testing.T, policy string, seed int64, faultRules []faultinject.Rule) (*Cluster, Report) {
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
	return c, report
}

// TestRunTraceReconciles is the end-to-end attribution invariant: on a
// seeded run with a mid-stream node failure, every finished trigger's
// serving-class stage durations must sum exactly to its end-to-end
// placement latency, and the report's attribution table must cover the
// run.
func TestRunTraceReconciles(t *testing.T) {
	// Round-robin keeps steering HORSE triggers onto nodes without HORSE
	// pools after the failure, so the run has a rich violator population.
	rules := []faultinject.Rule{{Site: faultinject.SiteNodeFail, Nth: 20}}
	c, report := tracedScanRun(t, PolicyRoundRobin, 42, rules)
	rec := c.Trace()
	if rec == nil {
		t.Fatal("Run did not arm a trace recorder")
	}
	if report.TraceReconcileFailures != 0 {
		t.Fatalf("%d traces failed serving-stage/latency reconciliation", report.TraceReconcileFailures)
	}
	if report.TraceViolations != rec.Violations() {
		t.Fatalf("report violations %d != recorder violations %d", report.TraceViolations, rec.Violations())
	}
	if rec.Violations() == 0 {
		t.Fatal("node-failure run recorded no SLO violations; the reroute path is not being traced")
	}
	if len(report.Attribution) == 0 {
		t.Fatal("report has no attribution table")
	}
	var invokes uint64
	servingRows := false
	for i, row := range report.Attribution {
		if i > 0 {
			prev := report.Attribution[i-1]
			if row.Mode < prev.Mode || (row.Mode == prev.Mode && row.Stage <= prev.Stage) {
				t.Fatalf("attribution rows not sorted by (mode, stage): %q/%q after %q/%q",
					row.Mode, row.Stage, prev.Mode, prev.Stage)
			}
		}
		if row.Class == trigtrace.ClassServing {
			servingRows = true
		}
		if row.Stage == trigtrace.StageInvoke {
			invokes += row.Count
		}
	}
	if !servingRows {
		t.Fatal("attribution has no serving-class rows")
	}
	// Every served trigger runs exactly one serving invoke; failed
	// attempts collapse into failed-attempt rows instead.
	if invokes != report.Served {
		t.Fatalf("invoke-stage count %d, want one per served trigger (%d)", invokes, report.Served)
	}
}

// TestRunTraceRetainsViolators pins the flight-recorder contract: with
// the violator population under the must-keep ring capacity, every
// SLO-violating trigger's full span tree survives to Traces().
func TestRunTraceRetainsViolators(t *testing.T) {
	rules := []faultinject.Rule{{Site: faultinject.SiteNodeFail, Nth: 20}}
	c, _ := tracedScanRun(t, PolicyRoundRobin, 42, rules)
	rec := c.Trace()
	traces := rec.Traces()
	if len(traces) == 0 {
		t.Fatal("no traces retained")
	}
	var violated uint64
	for i, tr := range traces {
		if i > 0 && traces[i-1].Seq >= tr.Seq {
			t.Fatalf("traces not sorted by arrival sequence: %d after %d", tr.Seq, traces[i-1].Seq)
		}
		if serving := classTotal(tr, trigtrace.ClassServing); serving != tr.Latency {
			t.Fatalf("trace %d serving stages sum to %v, want latency %v", tr.Seq, serving, tr.Latency)
		}
		if overhead := classTotal(tr, trigtrace.ClassOverhead); tr.EndToEnd != tr.Latency+overhead {
			t.Fatalf("trace %d end-to-end %v != latency %v + overhead %v",
				tr.Seq, tr.EndToEnd, tr.Latency, overhead)
		}
		if len(tr.Stages) == 0 {
			t.Fatalf("retained trace %d has no stages", tr.Seq)
		}
		if tr.Violated {
			violated++
		}
	}
	if violated != rec.Violations() {
		t.Fatalf("retained %d violators, want all %d", violated, rec.Violations())
	}
}

// TestRunTraceOutputIsByteIdentical extends the determinism guarantee
// to the Perfetto export: same seed, same bytes.
func TestRunTraceOutputIsByteIdentical(t *testing.T) {
	render := func(seed int64) string {
		c, _ := tracedScanRun(t, PolicyULLAffinity, seed, nil)
		var buf bytes.Buffer
		if err := trigtrace.WritePerfetto(&buf, c.Trace().Traces()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(42), render(42)
	if a != b {
		t.Fatal("same seed produced different Perfetto trace files")
	}
	if a == render(43) {
		t.Fatal("different seeds produced identical Perfetto trace files")
	}
}

// TestSharedRecorderOverlapFails: clusters sharing one recorder may run
// one after another, but a run whose recorder another run still holds
// fails with ErrRecorderInUse and leaves the holder's aggregates alone.
// A Claim and one hand-recorded trigger stand in for the holder's run,
// so the overlap is exact without any timing.
func TestSharedRecorderOverlapFails(t *testing.T) {
	ws, err := loadgen.ParseWorkloads("scan=poisson:rate=20000/s,mode=horse")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Workloads: ws,
		Horizon:   20 * simtime.Millisecond,
		Payloads:  map[string][]byte{"scan": scanPayload(t)},
	}
	rec := trigtrace.NewRecorder(trigtrace.RecorderOptions{Seed: 42})
	a, b := benchCluster(t, PolicyULLAffinity), benchCluster(t, PolicyULLAffinity)
	a.SetTrace(rec)
	b.SetTrace(rec)
	first, err := a.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Attribution) == 0 {
		t.Fatal("setup run recorded no attribution")
	}
	// The holder's run claims the recorder and finishes one trigger.
	claim, err := rec.Claim()
	if err != nil {
		t.Fatalf("claim after a finished run: %v", err)
	}
	tc := claim.Start(0, "scan", "horse", 0, 0)
	tc.RecordOn(trigtrace.StageInvoke, 0, 150, "node00", "horse", "")
	tc.Complete(trigtrace.Outcome{Served: "horse", Node: "node00", Latency: 150})
	held := claim.Attribution()
	if _, err := b.Run(cfg); !errors.Is(err, trigtrace.ErrRecorderInUse) {
		t.Fatalf("overlapping run: err = %v, want ErrRecorderInUse", err)
	}
	if !reflect.DeepEqual(claim.Attribution(), held) {
		t.Fatal("the refused run touched the holder's aggregates")
	}
	claim.Release()
	// b is a's twin, so once the recorder is free its run must report
	// exactly what a's did.
	second, err := b.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, first) {
		t.Fatal("the run after Release differs from the same run on a fresh recorder")
	}
}

// TestTriggerWithoutRecorderStaysUntraced: direct Trigger calls on a
// cluster that never ran Run take the disabled tracing path.
func TestTriggerWithoutRecorderStaysUntraced(t *testing.T) {
	c := testCluster(t, PolicyRoundRobin, NodeSpec{ULLSlots: 1})
	registerScan(t, c, faas.SandboxSpec{})
	if _, err := c.ScaleCluster("scan", 1, core.Horse); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	if _, _, err := c.Trigger("scan", faas.ModeHorse, scanPayload(t)); err != nil {
		t.Fatal(err)
	}
	if c.Trace() != nil {
		t.Fatal("direct Trigger armed a trace recorder")
	}
}

// clusterStages is a trace's cluster-level stage sequence — the stages
// the cluster itself records around each node-local attempt — as
// "stage@node/detail" strings.
func clusterStages(tr *trigtrace.TriggerTrace) []string {
	var out []string
	for _, s := range tr.Stages {
		switch s.Stage {
		case trigtrace.StagePlacement, trigtrace.StageQueueWait, trigtrace.StageFailedAttempt, trigtrace.StageReroute:
			out = append(out, string(s.Stage)+"@"+s.Node+"/"+s.Detail)
		}
	}
	return out
}

// TestTriggerTracedPath drives direct Trigger calls on a traced cluster
// through every terminal and failover path: a cluster.node.fail fault,
// a retryable on-node failure that fails over, an invocation failure
// (never retried), an all-nodes-failed reject, and a tenant admission
// reject. Every call must finish exactly one reconciling trace whose ID
// derives from its arrival index — including the arrival index an
// untraced call before the recorder was armed consumed.
func TestTriggerTracedPath(t *testing.T) {
	const seed = 5
	faults, err := faultinject.New(seed,
		faultinject.Rule{Site: faultinject.SiteNodeFail, Nth: 2},
		faultinject.Rule{Site: faultinject.SiteInvoke, Nth: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{
		Specs:   []NodeSpec{{ULLSlots: 1}, {ULLSlots: 1}, {ULLSlots: 1}},
		Policy:  PolicyRoundRobin,
		Seed:    seed,
		Faults:  faults,
		Tenants: []tenant.Spec{{Name: "acme", Rate: 1, Burst: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	registerScan(t, c, faas.SandboxSpec{})
	if err := c.BindTenant("scan", "acme"); err != nil {
		t.Fatal(err)
	}
	// node02 keeps no HORSE pool and the cluster has no fallback, so a
	// HORSE trigger routed there fails on-node and must fail over.
	for _, n := range c.Nodes()[:2] {
		if err := n.Platform().Provision("scan", 1, core.Horse); err != nil {
			t.Fatal(err)
		}
	}
	c.Settle()
	payload := scanPayload(t)
	// Arrival 0 runs untraced; it still consumes an arrival index.
	if _, p, err := c.Trigger("scan", faas.ModeHorse, payload); err != nil || p.Node != "node00" {
		t.Fatalf("untraced trigger placement %+v, err %v", p, err)
	}
	rec := trigtrace.NewRecorder(trigtrace.RecorderOptions{Seed: seed})
	c.SetTrace(rec)
	// A budget no trigger meets makes every trace a violator, so the
	// flight recorder retains them all.
	c.SetSLOBudget("scan", simtime.Nanosecond)

	trigger := func() (Placement, error) {
		_, p, err := c.Trigger("scan", faas.ModeHorse, payload)
		return p, err
	}
	// Arrival 1: round-robin picks node01, whose second routing
	// decision trips cluster.node.fail; the trigger reroutes to node02,
	// fails there for want of a pool, and lands on node00.
	p, err := trigger()
	if err != nil || p.Node != "node00" || p.Failovers != 2 {
		t.Fatalf("node-fail trigger placement %+v, err %v; want node00 after 2 failovers", p, err)
	}
	// Arrival 2: node02 fails on-node again and the retry serves on
	// node00 — a retryable failover.
	if p, err = trigger(); err != nil || p.Node != "node00" || p.Failovers != 1 {
		t.Fatalf("trigger-failed placement %+v, err %v; want node00 after 1 failover", p, err)
	}
	// Arrival 3: after node02 fails on-node once more, node00's fourth
	// invocation dies in the function body; that is not retried, and the
	// placement still reports the node it ran on.
	if p, err = trigger(); !errors.Is(err, ErrInvokeNotRetried) || p.NodeIndex < 0 {
		t.Fatalf("invoke-failure trigger placement %+v, err %v; want ErrInvokeNotRetried on a node", p, err)
	}
	// Arrival 4: with every node down the router has nowhere to go.
	for _, n := range c.Nodes() {
		if n.Health() == Up {
			if err := c.Fail(n.ID()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if p, err = trigger(); !errors.Is(err, ErrNoNodes) || p.NodeIndex != -1 {
		t.Fatalf("all-failed trigger placement %+v, err %v; want ErrNoNodes, no node", p, err)
	}
	// Arrival 5: acme's burst of 5 is spent, so admission rejects
	// before any routing decision.
	if p, err = trigger(); !errors.Is(err, ErrAdmissionRejected) || p.NodeIndex != -1 || p.Failovers != 0 {
		t.Fatalf("admission trigger placement %+v, err %v; want ErrAdmissionRejected, no node", p, err)
	}

	const calls = 5
	if n := rec.ReconcileFailures(); n != 0 {
		t.Fatalf("%d traces failed serving-stage/latency reconciliation", n)
	}
	traces := rec.Traces()
	if len(traces) != calls {
		t.Fatalf("retained %d traces, want all %d", len(traces), calls)
	}
	want := [calls][]string{
		{"reroute@node01/node-failed",
			"failed-attempt@node02/trigger-failed", "reroute@node02/trigger-failed",
			"placement@node00/round-robin", "queue-wait@node00/"},
		{"failed-attempt@node02/trigger-failed", "reroute@node02/trigger-failed",
			"placement@node00/round-robin", "queue-wait@node00/"},
		{"failed-attempt@node02/trigger-failed", "reroute@node02/trigger-failed",
			"failed-attempt@node00/invoke"},
		nil,
		nil,
	}
	for k, tr := range traces {
		seq := uint64(k + 1)
		if tr.Seq != seq || tr.ID != trigtrace.NewTraceID(seed, seq) {
			t.Errorf("trace %d: seq %d id %s, want seq %d id %s", k, tr.Seq, tr.IDString(), seq, trigtrace.NewTraceID(seed, seq))
		}
		if tr.Tenant != "acme" {
			t.Errorf("trace %d tenant %q, want acme", tr.Seq, tr.Tenant)
		}
		if got := clusterStages(tr); !slices.Equal(got, want[k]) {
			t.Errorf("trace %d cluster stages\n got %q\nwant %q", tr.Seq, got, want[k])
		}
	}
}

// classTotal sums the durations of tr's stages of one class.
func classTotal(tr *trigtrace.TriggerTrace, class trigtrace.Class) simtime.Duration {
	var sum simtime.Duration
	for _, s := range tr.Stages {
		if trigtrace.StageClass(s.Stage) == class {
			sum += s.Dur
		}
	}
	return sum
}
