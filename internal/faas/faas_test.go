package faas

import (
	"encoding/json"
	"errors"
	"testing"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/testutil"
	"github.com/horse-faas/horse/internal/trigtrace"
	"github.com/horse-faas/horse/internal/workload"
)

// newPlatform builds a bare platform; the warm-pool and keep-alive
// machinery it hosts must not leave goroutines behind, so every test
// built on this helper carries the leak check.
func newPlatform(t *testing.T) *Platform {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func registerScan(t *testing.T, p *Platform) *Deployment {
	t.Helper()
	d, err := p.Register(workload.NewScan(1), SandboxSpec{VCPUs: 1, MemoryMB: 512})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func scanPayload(t *testing.T) []byte {
	t.Helper()
	b, err := json.Marshal(workload.ScanRequest{Threshold: 5000})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRegisterValidation(t *testing.T) {
	p := newPlatform(t)
	if _, err := p.Register(nil, SandboxSpec{VCPUs: 1, MemoryMB: 1}); err == nil {
		t.Fatal("nil function accepted")
	}
	registerScan(t, p)
	if _, err := p.Register(workload.NewScan(2), SandboxSpec{VCPUs: 1, MemoryMB: 1}); !errors.Is(err, ErrAlreadyDeployed) {
		t.Fatalf("err = %v, want ErrAlreadyDeployed", err)
	}
	if _, err := p.Register(workload.DefaultNAT(), SandboxSpec{VCPUs: 0, MemoryMB: 1}); err == nil {
		t.Fatal("zero vCPUs accepted")
	}
	if _, err := p.Deployment("missing"); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("err = %v, want ErrUnknownFunction", err)
	}
}

func TestRegisterDefaults(t *testing.T) {
	p := newPlatform(t)
	d := registerScan(t, p)
	if err := p.EnsureSnapshot("scan"); err != nil {
		t.Fatal(err)
	}
	if got, want := d.snapshot.WorkingSetPages, d.snapshot.TotalPages/20; got != want {
		t.Fatalf("snapshot working set = %d pages, want 5%% of %d = %d", got, d.snapshot.TotalPages, want)
	}
}

func TestColdTriggerMatchesTable1(t *testing.T) {
	p := newPlatform(t)
	registerScan(t, p)
	inv, err := p.Trigger("scan", ModeCold, scanPayload(t))
	if err != nil {
		t.Fatal(err)
	}
	// Table 1: cold init 1.5×10⁶ µs, scan exec 0.7 µs.
	if inv.Init != simtime.Duration(1.5*float64(simtime.Second)) {
		t.Fatalf("Init = %v, want 1.5s", inv.Init)
	}
	if inv.Exec != 700*simtime.Nanosecond {
		t.Fatalf("Exec = %v, want 700ns", inv.Exec)
	}
	if inv.InitPercent() < 99.9 {
		t.Fatalf("InitPercent = %v, want >= 99.9 (Table 1: 99.99)", inv.InitPercent())
	}
	var res workload.ScanResult
	if err := json.Unmarshal(inv.Output, &res); err != nil {
		t.Fatalf("output not a ScanResult: %v", err)
	}
	if res.Count == 0 {
		t.Fatal("scan returned no matches")
	}
	// The sandbox went back to the pool as a plain warm sandbox.
	d, _ := p.Deployment("scan")
	if d.WarmPoolSize() != 1 {
		t.Fatalf("pool = %d, want 1", d.WarmPoolSize())
	}
}

func TestRestoreTriggerChargesSnapshotCost(t *testing.T) {
	p := newPlatform(t)
	registerScan(t, p)
	inv, err := p.Trigger("scan", ModeRestore, scanPayload(t))
	if err != nil {
		t.Fatal(err)
	}
	// Table 1: restore ≈ 1300 µs.
	if inv.Init < 1200*simtime.Microsecond || inv.Init > 1400*simtime.Microsecond {
		t.Fatalf("restore Init = %v, want ≈1300µs", inv.Init)
	}
}

func TestWarmTriggerMatchesTable1(t *testing.T) {
	p := newPlatform(t)
	registerScan(t, p)
	if err := p.Provision("scan", 1, core.Vanilla); err != nil {
		t.Fatal(err)
	}
	inv, err := p.Trigger("scan", ModeWarm, scanPayload(t))
	if err != nil {
		t.Fatal(err)
	}
	// Table 1: warm init 1.1 µs for the 1-vCPU microVM.
	if inv.Init != 1100*simtime.Nanosecond {
		t.Fatalf("warm Init = %v, want 1.1µs", inv.Init)
	}
	// Category 3 warm init share: 61.1% in Table 1.
	if pct := inv.InitPercent(); pct < 59 || pct > 63 {
		t.Fatalf("InitPercent = %v, want ≈61.1", pct)
	}
}

func TestHorseTriggerMatchesFigure4(t *testing.T) {
	p := newPlatform(t)
	registerScan(t, p)
	if err := p.Provision("scan", 1, core.Horse); err != nil {
		t.Fatal(err)
	}
	inv, err := p.Trigger("scan", ModeHorse, scanPayload(t))
	if err != nil {
		t.Fatal(err)
	}
	if inv.Init != 150*simtime.Nanosecond {
		t.Fatalf("horse Init = %v, want 150ns", inv.Init)
	}
	// Figure 4: HORSE init share for Category 3 is 17.64%.
	if pct := inv.InitPercent(); pct < 17 || pct > 18.5 {
		t.Fatalf("InitPercent = %v, want ≈17.6", pct)
	}
}

func TestWarmWithoutPoolFails(t *testing.T) {
	p := newPlatform(t)
	registerScan(t, p)
	if _, err := p.Trigger("scan", ModeWarm, scanPayload(t)); !errors.Is(err, ErrNoWarmSandbox) {
		t.Fatalf("err = %v, want ErrNoWarmSandbox", err)
	}
	if _, err := p.Trigger("scan", ModeHorse, scanPayload(t)); !errors.Is(err, ErrNoWarmSandbox) {
		t.Fatalf("err = %v, want ErrNoWarmSandbox", err)
	}
}

func TestPoolPolicySeparation(t *testing.T) {
	p := newPlatform(t)
	registerScan(t, p)
	if err := p.Provision("scan", 1, core.Vanilla); err != nil {
		t.Fatal(err)
	}
	// Only a vanilla-armed sandbox exists; HORSE mode must not steal it.
	if _, err := p.Trigger("scan", ModeHorse, scanPayload(t)); !errors.Is(err, ErrNoWarmSandbox) {
		t.Fatalf("err = %v, want ErrNoWarmSandbox", err)
	}
}

func TestProvisionValidation(t *testing.T) {
	p := newPlatform(t)
	registerScan(t, p)
	if err := p.Provision("missing", 1, core.Horse); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("err = %v", err)
	}
	if err := p.Provision("scan", 0, core.Horse); err == nil {
		t.Fatal("zero count accepted")
	}
	// Long-running functions cannot be armed for the uLL fast path.
	if _, err := p.Register(workload.NewThumbnail(), SandboxSpec{VCPUs: 2, MemoryMB: 1024}); err != nil {
		t.Fatal(err)
	}
	if err := p.Provision("thumbnail", 1, core.Horse); !errors.Is(err, ErrNotULLFunction) {
		t.Fatalf("err = %v, want ErrNotULLFunction", err)
	}
	// But the plain warm pool is fine.
	if err := p.Provision("thumbnail", 1, core.Vanilla); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownMode(t *testing.T) {
	p := newPlatform(t)
	registerScan(t, p)
	if _, err := p.Trigger("scan", StartMode(99), nil); !errors.Is(err, ErrUnknownMode) {
		t.Fatalf("err = %v, want ErrUnknownMode", err)
	}
}

func TestRepeatedHorseTriggersReuseSandbox(t *testing.T) {
	p := newPlatform(t)
	registerScan(t, p)
	if err := p.Provision("scan", 1, core.Horse); err != nil {
		t.Fatal(err)
	}
	var firstSandbox string
	for i := 0; i < 20; i++ {
		inv, err := p.Trigger("scan", ModeHorse, scanPayload(t))
		if err != nil {
			t.Fatalf("trigger %d: %v", i, err)
		}
		if i == 0 {
			firstSandbox = inv.Sandbox
		} else if inv.Sandbox != firstSandbox {
			t.Fatalf("trigger %d used %s, want pooled %s", i, inv.Sandbox, firstSandbox)
		}
		if inv.Init != 150*simtime.Nanosecond {
			t.Fatalf("trigger %d init = %v, want constant 150ns", i, inv.Init)
		}
	}
}

func TestInvokeErrorDestroysSandbox(t *testing.T) {
	p := newPlatform(t)
	registerScan(t, p)
	if err := p.Provision("scan", 1, core.Horse); err != nil {
		t.Fatal(err)
	}
	_, err := p.Trigger("scan", ModeHorse, []byte("not json"))
	if !errors.Is(err, ErrInvokeFailed) {
		t.Fatalf("err = %v, want ErrInvokeFailed", err)
	}
	// The sandbox's guest died mid-invocation: it must not be re-pooled
	// (that would poison the next trigger) and must not linger on the
	// hypervisor.
	d, _ := p.Deployment("scan")
	if d.WarmPoolSize() != 0 {
		t.Fatalf("pool = %d after failed invoke, want 0 (sandbox destroyed)", d.WarmPoolSize())
	}
	if n := p.Hypervisor().Sandboxes(); n != 0 {
		t.Fatalf("hypervisor sandboxes = %d, want 0", n)
	}
	// A fresh provision serves cleanly afterwards.
	if err := p.Provision("scan", 1, core.Horse); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Trigger("scan", ModeHorse, scanPayload(t)); err != nil {
		t.Fatal(err)
	}
}

func TestReapKeepAlive(t *testing.T) {
	p := newPlatform(t)
	d := registerScan(t, p)
	if err := p.Provision("scan", 2, core.Horse); err != nil {
		t.Fatal(err)
	}
	if n, err := p.Reap(); err != nil || n != 0 {
		t.Fatalf("early reap = %d, %v", n, err)
	}
	// Each pause takes virtual time, so the second sandbox was pooled
	// later than the first.
	first, last := d.pool[0].pausedAt, d.pool[1].pausedAt
	if !first.Before(last) {
		t.Fatalf("pausedAt %v, %v: want the second pooled later", first, last)
	}
	// At exactly DefaultKeepAlive idle the second sandbox survives; the
	// first, idle longer, is reaped.
	p.Clock().Advance(last.Add(DefaultKeepAlive).Sub(p.Clock().Now()))
	if n, err := p.Reap(); err != nil || n != 1 {
		t.Fatalf("reap at the window boundary = %d, %v; want 1", n, err)
	}
	if d.WarmPoolSize() != 1 || d.pool[0].pausedAt != last {
		t.Fatalf("pool = %d, want only the sandbox idle for exactly DefaultKeepAlive", d.WarmPoolSize())
	}
	// One nanosecond later it has outlived the window.
	p.Clock().Advance(simtime.Nanosecond)
	if n, err := p.Reap(); err != nil || n != 1 {
		t.Fatalf("reap 1ns past the window = %d, %v; want 1", n, err)
	}
	if p.Reaped() != 2 {
		t.Fatalf("Reaped() = %d, want 2", p.Reaped())
	}
	if d.WarmPoolSize() != 0 {
		t.Fatal("pool not emptied")
	}
	if p.Engine().PreparedSandboxes() != 0 {
		t.Fatal("reaper leaked prepared HORSE state")
	}
	if p.Hypervisor().Sandboxes() != 0 {
		t.Fatal("reaper leaked sandboxes")
	}
}

func TestStartModeString(t *testing.T) {
	tests := []struct {
		give StartMode
		want string
	}{
		{give: ModeCold, want: "cold"},
		{give: ModeRestore, want: "restore"},
		{give: ModeWarm, want: "warm"},
		{give: ModeHorse, want: "horse"},
		{give: StartMode(7), want: "mode(7)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestAllThreeCategoriesEndToEnd(t *testing.T) {
	p := newPlatform(t)
	for _, fn := range []workload.Function{
		workload.DefaultFirewall(),
		workload.DefaultNAT(),
		workload.NewScan(3),
	} {
		if _, err := p.Register(fn, SandboxSpec{VCPUs: 1, MemoryMB: 512}); err != nil {
			t.Fatal(err)
		}
		if err := p.Provision(fn.Name(), 1, core.Horse); err != nil {
			t.Fatal(err)
		}
	}
	payloads := map[string][]byte{
		"firewall": mustJSON(t, workload.FirewallRequest{SrcIP: "10.0.0.1", DstPort: 80}),
		"nat":      mustJSON(t, workload.NATPacket{DstIP: "203.0.113.10", DstPort: 80}),
		"scan":     mustJSON(t, workload.ScanRequest{Threshold: 100}),
	}
	for name, payload := range payloads {
		inv, err := p.Trigger(name, ModeHorse, payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if inv.Init != 150*simtime.Nanosecond {
			t.Fatalf("%s init = %v", name, inv.Init)
		}
		if len(inv.Output) == 0 {
			t.Fatalf("%s produced no output", name)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTriggerTracedAppendsIntoDst pins the destination-buffer contract:
// an appending body (the scan) writes its output into dst when dst has
// room, byte-identical to Trigger's fresh output, while a body with only
// Invoke (the NAT) ignores dst and returns a fresh buffer.
func TestTriggerTracedAppendsIntoDst(t *testing.T) {
	p := newPlatform(t)
	registerScan(t, p)
	if _, err := p.Register(workload.DefaultNAT(), SandboxSpec{VCPUs: 1, MemoryMB: 128}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"scan", "nat"} {
		if err := p.Provision(name, 1, core.Horse); err != nil {
			t.Fatal(err)
		}
	}
	payload := scanPayload(t)
	fresh, err := p.Trigger("scan", ModeHorse, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Output) != cap(fresh.Output) {
		t.Fatalf("Trigger output has len %d, cap %d; want an exact-size buffer", len(fresh.Output), cap(fresh.Output))
	}
	dst := make([]byte, 0, 16<<10)
	inv, err := p.TriggerTraced(trigtrace.Context{}, dst, "scan", ModeHorse, payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(inv.Output) != string(fresh.Output) {
		t.Fatalf("appended output differs from Trigger's:\n got %q\nwant %q", inv.Output, fresh.Output)
	}
	if &inv.Output[0] != &dst[:1][0] {
		t.Fatal("scan output was not written into dst")
	}

	nat := mustJSON(t, workload.NATPacket{DstIP: "203.0.113.10", DstPort: 80})
	inv, err = p.TriggerTraced(trigtrace.Context{}, dst, "nat", ModeHorse, nat)
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.Output) == 0 || &inv.Output[0] == &dst[:1][0] {
		t.Fatal("nat output aliases dst; a body with only Invoke must return a fresh buffer")
	}
}
