package faas

import (
	"testing"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/workload"
)

// poolCount returns the named deployment's pool entries for policy.
func poolCount(t *testing.T, p *Platform, name string, policy core.Policy) int {
	t.Helper()
	d, err := p.Deployment(name)
	if err != nil {
		t.Fatal(err)
	}
	return d.PoolCount(policy)
}

func TestPoolStats(t *testing.T) {
	p := newPlatform(t)
	registerScan(t, p)
	if err := p.Provision("scan", 2, core.Horse); err != nil {
		t.Fatal(err)
	}
	p.Clock().Advance(3 * simtime.Second)
	if err := p.Provision("scan", 1, core.Vanilla); err != nil {
		t.Fatal(err)
	}
	stats, err := p.PoolStats("scan")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Size != 3 {
		t.Fatalf("Size = %d, want 3", stats.Size)
	}
	if h, v := poolCount(t, p, "scan", core.Horse), poolCount(t, p, "scan", core.Vanilla); h != 2 || v != 1 {
		t.Fatalf("pool counts horse %d, vanilla %d; want 2, 1", h, v)
	}
	if _, err := p.PoolStats("missing"); err == nil {
		t.Fatal("unknown deployment accepted")
	}
}

func TestScaleToGrows(t *testing.T) {
	p := newPlatform(t)
	registerScan(t, p)
	if err := p.ScaleTo("scan", 4, core.Horse); err != nil {
		t.Fatal(err)
	}
	if got := poolCount(t, p, "scan", core.Horse); got != 4 {
		t.Fatalf("pool = %d, want 4 horse entries", got)
	}
	// Idempotent at target.
	if err := p.ScaleTo("scan", 4, core.Horse); err != nil {
		t.Fatal(err)
	}
	stats, _ := p.PoolStats("scan")
	if stats.Size != 4 {
		t.Fatalf("Size = %d after no-op scale, want 4", stats.Size)
	}
}

func TestScaleToShrinksOldestFirst(t *testing.T) {
	p := newPlatform(t)
	registerScan(t, p)
	if err := p.Provision("scan", 1, core.Horse); err != nil {
		t.Fatal(err)
	}
	p.Clock().Advance(simtime.Second)
	if err := p.Provision("scan", 2, core.Horse); err != nil {
		t.Fatal(err)
	}
	if err := p.ScaleTo("scan", 1, core.Horse); err != nil {
		t.Fatal(err)
	}
	d, err := p.Deployment("scan")
	if err != nil {
		t.Fatal(err)
	}
	if d.WarmPoolSize() != 1 || d.PoolCount(core.Horse) != 1 {
		t.Fatalf("pool = %+v, want 1 horse entry", d.pool)
	}
	// The survivor is one of the fresher sandboxes, paused a second in.
	if at := d.pool[policyIndex(core.Horse)].at(0).pausedAt; at < simtime.Time(simtime.Second) {
		t.Fatalf("survivor paused at %v; shrink did not evict the oldest", at)
	}
	if p.Hypervisor().Sandboxes() != 1 {
		t.Fatalf("live sandboxes = %d, want 1", p.Hypervisor().Sandboxes())
	}
	if p.Engine().PreparedSandboxes() != 1 {
		t.Fatalf("prepared = %d, want 1 (others forgotten)", p.Engine().PreparedSandboxes())
	}
}

func TestScaleToPolicyIsolation(t *testing.T) {
	p := newPlatform(t)
	registerScan(t, p)
	if err := p.Provision("scan", 2, core.Vanilla); err != nil {
		t.Fatal(err)
	}
	// Scaling the horse pool to zero must not touch vanilla entries.
	if err := p.ScaleTo("scan", 0, core.Horse); err != nil {
		t.Fatal(err)
	}
	if got := poolCount(t, p, "scan", core.Vanilla); got != 2 {
		t.Fatalf("vanilla pool disturbed: %d entries, want 2", got)
	}
}

func TestScaleToValidation(t *testing.T) {
	p := newPlatform(t)
	registerScan(t, p)
	if err := p.ScaleTo("scan", -1, core.Horse); err == nil {
		t.Fatal("negative target accepted")
	}
	if err := p.ScaleTo("missing", 1, core.Horse); err == nil {
		t.Fatal("unknown deployment accepted")
	}
}

func TestAutoscaleUnderTriggerLoad(t *testing.T) {
	p := newPlatform(t)
	if _, err := p.Register(workload.DefaultNAT(), SandboxSpec{VCPUs: 1, MemoryMB: 128}); err != nil {
		t.Fatal(err)
	}
	if err := p.ScaleTo("nat", 3, core.Horse); err != nil {
		t.Fatal(err)
	}
	payload := mustJSON(t, workload.NATPacket{DstIP: "203.0.113.10", DstPort: 80})
	// Triggers consume and re-pause pool entries, so the pool stays at
	// target throughout.
	for i := 0; i < 30; i++ {
		if _, err := p.Trigger("nat", ModeHorse, payload); err != nil {
			t.Fatalf("trigger %d: %v", i, err)
		}
		if got := poolCount(t, p, "nat", core.Horse); got != 3 {
			t.Fatalf("trigger %d: pool fell to %d", i, got)
		}
	}
}
