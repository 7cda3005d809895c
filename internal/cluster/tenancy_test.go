package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/loadgen"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/tenant"
	"github.com/horse-faas/horse/internal/testutil"
	"github.com/horse-faas/horse/internal/trigtrace"
	"github.com/horse-faas/horse/internal/workload"
)

func natPayload(t *testing.T) []byte {
	t.Helper()
	payload, err := json.Marshal(workload.NATPacket{DstIP: "203.0.113.10", DstPort: 80})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func registerNAT(t *testing.T, c *Cluster) {
	t.Helper()
	nat, err := workload.NewNAT([]workload.NATRule{{MatchIP: "203.0.113.10", MatchPort: 80, RewriteIP: "10.0.0.5", RewritePort: 8080}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterEverywhere(nat, faas.SandboxSpec{VCPUs: 1, MemoryMB: 128}); err != nil {
		t.Fatal(err)
	}
}

// adversarialRun runs the adversarial tenant-mix regression scenario
// (the loadgen preset's workloads and contract) on the 8-node topology
// with a seeded mid-stream node failure. With tenancy off the tenant
// tags are stripped and no contract is armed — the no-isolation
// baseline the fairness assertions compare against. Returns the report
// plus the full rendered byte surface (JSON, CSV, Perfetto) for the
// determinism matrix.
func adversarialRun(t *testing.T, shards int, tenancy bool) (Report, []byte) {
	t.Helper()
	preset, ok := loadgen.LookupPreset(loadgen.PresetAdversarialTenants)
	if !ok {
		t.Fatal("adversarial-tenants preset missing")
	}
	ws, err := loadgen.ParseWorkloads(preset.Arrivals)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Policy:   PolicyULLAffinity,
		Seed:     42,
		Fallback: faas.FallbackConfig{Enabled: true},
		Shards:   shards,
	}
	opts.Specs = make([]NodeSpec, 8)
	for i := range opts.Specs {
		if i < 2 {
			opts.Specs[i].ULLSlots = 2
		}
	}
	if opts.Faults, err = faultinject.New(42, faultinject.Rule{Site: faultinject.SiteNodeFail, Nth: 200}); err != nil {
		t.Fatal(err)
	}
	if tenancy {
		if opts.Tenants, err = tenant.ParseSpecs(preset.Tenants); err != nil {
			t.Fatal(err)
		}
		opts.ULLAdmitRate = preset.ULLAdmitRate
	} else {
		for i := range ws {
			ws[i].Tenant = ""
		}
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	registerScan(t, c, faas.SandboxSpec{})
	registerNAT(t, c)
	// Bind before provisioning (mirroring the CLI) so the slot clamp
	// governs the pools from the first ScaleCluster.
	for _, w := range ws {
		if err := c.BindTenant(w.Function, w.Tenant); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.ScaleCluster("scan", 3, core.Horse); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ScaleCluster("nat", 1, core.Horse); err != nil {
		t.Fatal(err)
	}
	report, err := c.Run(RunConfig{
		Workloads: ws,
		Horizon:   200 * simtime.Millisecond,
		Payloads:  map[string][]byte{"scan": scanPayload(t), "nat": natPayload(t)},
		// The steady tenant's scan budget is tight (5 µs: hot path plus
		// a little queueing) so the greedy bursts spilling onto its node
		// actually violate it — the regression the gate must prevent.
		SLO: map[string]simtime.Duration{"scan": 5 * simtime.Microsecond, "nat": DefaultULLBudget},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trigtrace.WritePerfetto(&buf, c.Trace().Traces()); err != nil {
		t.Fatal(err)
	}
	return report, buf.Bytes()
}

func tenantSummary(t *testing.T, r Report, name string) TenantSummary {
	t.Helper()
	for _, ts := range r.Tenants {
		if ts.Tenant == name {
			return ts
		}
	}
	t.Fatalf("tenant %q missing from report (have %d tenants)", name, len(r.Tenants))
	return TenantSummary{}
}

// TestAdversarialTenantFairness is the seeded fairness regression
// (DESIGN.md §14): under the adversarial mix plus a node failure, the
// weighted-fair admission gate must hold the steady tenant's uLL SLO
// attainment at ≥ 0.9 and strictly above the no-tenancy baseline, and
// every admission reject must be charged to the greedy tenant.
func TestAdversarialTenantFairness(t *testing.T) {
	fair, _ := adversarialRun(t, 1, true)
	baseline, _ := adversarialRun(t, 1, false)

	steady := tenantSummary(t, fair, "steady")
	greedy := tenantSummary(t, fair, "greedy")
	if steady.Arrivals == 0 || greedy.Arrivals == 0 {
		t.Fatalf("scenario generated no traffic: steady %d, greedy %d", steady.Arrivals, greedy.Arrivals)
	}

	steadyAttainment := attainment(steady.Missed, steady.Arrivals)
	if steadyAttainment < 0.9 {
		t.Errorf("steady tenant attainment %.4f under fair sharing, want >= 0.9", steadyAttainment)
	}

	// Baseline: same traffic, no contract — the scan function's SLO
	// attainment is the steady tenant's outcome without isolation.
	var baseScan SLOSummary
	for _, s := range baseline.SLOs {
		if s.Function == "scan" {
			baseScan = s
		}
	}
	if baseScan.Arrivals == 0 {
		t.Fatal("baseline run has no scan traffic")
	}
	if steadyAttainment <= baseScan.Attainment {
		t.Errorf("fair sharing did not help: steady attainment %.4f vs baseline %.4f",
			steadyAttainment, baseScan.Attainment)
	}

	if greedy.AdmissionRejected == 0 {
		t.Error("greedy tenant was never admission-rejected; the gate is not biting")
	}
	if steady.AdmissionRejected != 0 {
		t.Errorf("steady tenant took %d admission rejects; they must be charged to the greedy tenant",
			steady.AdmissionRejected)
	}
	var admissionCount uint64
	for _, rr := range fair.RejectionReasons {
		if rr.Reason == RejectReasonAdmission {
			admissionCount = rr.Count
		}
	}
	if admissionCount != greedy.AdmissionRejected+steady.AdmissionRejected {
		t.Errorf("rejection breakdown admission=%d does not match tenant charges %d+%d",
			admissionCount, greedy.AdmissionRejected, steady.AdmissionRejected)
	}
	if baseline.Tenants != nil {
		t.Error("no-tenancy baseline report carries a tenant section")
	}

	// Slot accounting: the two contracts split the surviving uLL
	// capacity — scan's pool on the up node counts against steady, and
	// the physical per-node slot cap means holdings can never exceed
	// the live capacity.
	if steady.SlotsHeld+greedy.SlotsHeld > steady.Entitlement+greedy.Entitlement {
		t.Errorf("tenants hold %d+%d slots, above the %d+%d entitlements",
			steady.SlotsHeld, greedy.SlotsHeld, steady.Entitlement, greedy.Entitlement)
	}
}

// TestTenancyDeterministicAcrossShardCounts extends the §13 matrix to
// tenancy: the tenancy-enabled adversarial scenario must render a
// byte-identical report (JSON, CSV, Perfetto) at shard counts 1, 2,
// and 8 — admission runs at the pump, on the coordinator, in arrival
// order, so sharding cannot move a single admission decision.
func TestTenancyDeterministicAcrossShardCounts(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	baseline, want := adversarialRun(t, 1, true)
	if len(baseline.Tenants) != 2 {
		t.Fatalf("report has %d tenants, want 2", len(baseline.Tenants))
	}
	for _, shards := range []int{2, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			if _, got := adversarialRun(t, shards, true); !bytes.Equal(got, want) {
				t.Fatalf("shards=%d produced different bytes than the sequential run (%d vs %d bytes)",
					shards, len(got), len(want))
			}
		})
	}
}

// TestBindTenant covers the binding contract: unknown functions and
// tenants are rejected, rebinding to a different tenant is rejected,
// rebinding to the same tenant and the empty name are no-ops.
func TestBindTenant(t *testing.T) {
	specs := []NodeSpec{{ULLSlots: 2}, {}}
	c, err := New(Options{
		Specs:   specs,
		Seed:    1,
		Tenants: []tenant.Spec{{Name: "acme"}, {Name: "umbrella"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	registerScan(t, c, faas.SandboxSpec{})
	if err := c.BindTenant("scan", "acme"); err != nil {
		t.Fatal(err)
	}
	if err := c.BindTenant("scan", "acme"); err != nil {
		t.Fatalf("same-tenant rebind should be a no-op, got %v", err)
	}
	if err := c.BindTenant("scan", ""); err != nil {
		t.Fatalf("empty tenant name should be a no-op, got %v", err)
	}
	if err := c.BindTenant("scan", "umbrella"); err == nil {
		t.Fatal("cross-tenant rebind must fail")
	}
	if err := c.BindTenant("scan", "nope"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant = %v, want ErrUnknownTenant", err)
	}
	if err := c.BindTenant("ghost", "acme"); !errors.Is(err, faas.ErrUnknownFunction) {
		t.Fatalf("unknown function = %v, want ErrUnknownFunction", err)
	}

	// Without a contract, any non-empty tenant name is unknown and the
	// error says why.
	bare, err := New(Options{Specs: []NodeSpec{{}}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	registerScan(t, bare, faas.SandboxSpec{})
	err = bare.BindTenant("scan", "acme")
	if !errors.Is(err, ErrUnknownTenant) || !strings.Contains(err.Error(), "no tenant contract") {
		t.Fatalf("bind without contract = %v, want ErrUnknownTenant mentioning the missing contract", err)
	}
}

// TestTenantSlotClampAndReclaim covers the weighted-fair slot ledger:
// a tenant may borrow idle capacity beyond its entitlement, a tenant
// scaling within its entitlement reclaims borrowed holdings, and
// holdings at or below the entitlement are preemption-protected.
func TestTenantSlotClampAndReclaim(t *testing.T) {
	// 4 reserved slots, split 3:1 between acme and bold.
	c, err := New(Options{
		Specs: []NodeSpec{{ULLSlots: 2}, {ULLSlots: 2}, {}},
		Seed:  1,
		Tenants: []tenant.Spec{
			{Name: "acme", Weight: 3, Slots: 3},
			{Name: "bold", Weight: 1, Slots: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	registerScan(t, c, faas.SandboxSpec{})
	registerNAT(t, c)
	if err := c.BindTenant("scan", "acme"); err != nil {
		t.Fatal(err)
	}
	if err := c.BindTenant("nat", "bold"); err != nil {
		t.Fatal(err)
	}

	// bold's entitlement is 1, but acme is idle: bold may borrow up to
	// the whole free capacity.
	placed, err := c.ScaleCluster("nat", 4, core.Horse)
	if err != nil {
		t.Fatal(err)
	}
	if placed != 4 {
		t.Fatalf("bold borrowed %d slots with the cluster idle, want 4", placed)
	}

	// acme scales within its entitlement: the clamp must reclaim the
	// borrowed slots from bold rather than refuse.
	placed, err = c.ScaleCluster("scan", 3, core.Horse)
	if err != nil {
		t.Fatal(err)
	}
	if placed != 3 {
		t.Fatalf("acme placed %d slots inside its entitlement of 3, want 3", placed)
	}
	if held := c.tenantHorseHeld(mustTenant(t, c, "bold")); held != 1 {
		t.Fatalf("bold holds %d slots after reclaim, want 1 (its entitlement)", held)
	}

	// bold is now at its entitlement: acme cannot take that last slot
	// even though it asks for more than it holds.
	placed, err = c.ScaleCluster("scan", 4, core.Horse)
	if err != nil {
		t.Fatal(err)
	}
	if placed != 3 {
		t.Fatalf("acme placed %d slots, want 3 — bold's entitled slot is preemption-protected", placed)
	}
}

// TestTenantMemoryQuota covers the memory side of the contract: a
// tenant's pools across all policies stay inside its MemoryMB.
func TestTenantMemoryQuota(t *testing.T) {
	c, err := New(Options{
		Specs:   []NodeSpec{{ULLSlots: 4}, {}},
		Seed:    1,
		Tenants: []tenant.Spec{{Name: "acme", MemoryMB: 384}},
	})
	if err != nil {
		t.Fatal(err)
	}
	registerScan(t, c, faas.SandboxSpec{VCPUs: 1, MemoryMB: 128})
	if err := c.BindTenant("scan", "acme"); err != nil {
		t.Fatal(err)
	}
	// 384 MB quota at 128 MB per sandbox = 3 entries, despite asking
	// for 6 and the nodes having room for them.
	placed, err := c.ScaleCluster("scan", 6, core.Vanilla)
	if err != nil {
		t.Fatal(err)
	}
	if placed != 3 {
		t.Fatalf("placed %d vanilla entries, want 3 (384 MB quota / 128 MB)", placed)
	}
	// The quota spans policies: the vanilla pool leaves no room for
	// HORSE entries.
	placed, err = c.ScaleCluster("scan", 2, core.Horse)
	if err != nil {
		t.Fatal(err)
	}
	if placed != 0 {
		t.Fatalf("placed %d HORSE entries over quota, want 0", placed)
	}
}

func mustTenant(t *testing.T, c *Cluster, name string) int {
	t.Helper()
	idx, ok := c.Tenants().Lookup(name)
	if !ok {
		t.Fatalf("tenant %q not found", name)
	}
	return idx
}

// TestTriggerAdmissionGate covers the direct Trigger path: a
// rate-limited tenant's triggers are rejected with ErrAdmissionRejected
// once the bucket drains, and the reject consumes no placement.
func TestTriggerAdmissionGate(t *testing.T) {
	c, err := New(Options{
		Specs:   []NodeSpec{{ULLSlots: 2}},
		Seed:    1,
		Tenants: []tenant.Spec{{Name: "acme", Rate: 1000, Burst: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	registerScan(t, c, faas.SandboxSpec{})
	if err := c.BindTenant("scan", "acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ScaleCluster("scan", 2, core.Horse); err != nil {
		t.Fatal(err)
	}
	payload := scanPayload(t)
	served := 0
	var rejected uint64
	for i := 0; i < 5; i++ {
		_, _, err := c.Trigger("scan", faas.ModeHorse, payload)
		switch {
		case err == nil:
			served++
		case errors.Is(err, ErrAdmissionRejected):
			rejected++
			if !strings.Contains(err.Error(), `"acme"`) || !strings.Contains(err.Error(), "rate") {
				t.Errorf("admission error %q does not name the tenant and the gate", err)
			}
		default:
			t.Fatal(err)
		}
	}
	if served != 2 || rejected != 3 {
		t.Fatalf("burst of 5 at burst-capacity 2: served %d, rejected %d; want 2 and 3", served, rejected)
	}
	if got := c.Rejected(); got != rejected {
		t.Errorf("cluster rejected counter = %d, want %d", got, rejected)
	}
}
