package faas

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
	"github.com/horse-faas/horse/internal/testutil"
	"github.com/horse-faas/horse/internal/trace"
	"github.com/horse-faas/horse/internal/trigtrace"
	"github.com/horse-faas/horse/internal/vmm"
	"github.com/horse-faas/horse/internal/workload"
)

// newFaultyPlatform builds a platform with a metrics registry, an armed
// injector, and a fallback configuration — the DESIGN.md §7 failure-
// injection harness.
func newFaultyPlatform(t *testing.T, inj *faultinject.Injector, fb FallbackConfig) *Platform {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	p, err := New(Options{Metrics: telemetry.NewRegistry(), Faults: inj, Fallback: fb})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustInjector(t *testing.T, seed int64, rules ...faultinject.Rule) *faultinject.Injector {
	t.Helper()
	inj, err := faultinject.New(seed, rules...)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestResumeNonPausedSandboxFails covers the §7 matrix row "resume a
// sandbox that is not paused": the failure surfaces cleanly instead of
// corrupting queue state.
func TestResumeNonPausedSandboxFails(t *testing.T) {
	p := newPlatform(t)
	sb, err := p.Hypervisor().CreateSandbox(vmm.Config{VCPUs: 1, MemoryMB: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine().Resume(sb, core.Vanilla); !errors.Is(err, vmm.ErrNotPaused) {
		t.Fatalf("err = %v, want ErrNotPaused", err)
	}
}

// TestDoublePauseFails covers the §7 matrix row "pause an already-paused
// sandbox".
func TestDoublePauseFails(t *testing.T) {
	p := newPlatform(t)
	sb, err := p.Hypervisor().CreateSandbox(vmm.Config{VCPUs: 1, MemoryMB: 128, ULL: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine().Pause(sb, core.Horse); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine().Pause(sb, core.Horse); !errors.Is(err, vmm.ErrNotRunning) {
		t.Fatalf("double pause err = %v, want ErrNotRunning", err)
	}
}

// TestLockContentionRetryExhaustion arms resume-lock contention at every
// visit: the horse attempt retries DefaultMaxRetries times with
// exponential virtual-time backoff, exhausts its budget, and the
// still-paused sandbox goes back to the pool before the trigger walks on
// to warm (a pool miss: the one pooled sandbox is armed for horse) and
// is served by restore.
func TestLockContentionRetryExhaustion(t *testing.T) {
	inj := mustInjector(t, 7, faultinject.Rule{
		Site: faultinject.SiteResume, Every: 1, Err: vmm.ErrResumeBusy,
	})
	p := newFaultyPlatform(t, inj, FallbackConfig{Enabled: true})
	d := registerScan(t, p)
	if err := p.Provision("scan", 1, core.Horse); err != nil {
		t.Fatal(err)
	}
	rec := trigtrace.NewRecorder(trigtrace.RecorderOptions{Seed: 7})
	tc := rec.Start(0, "scan", ModeHorse.String(), p.Clock().Now(), 0)
	inv, err := p.TriggerTraced(tc, nil, "scan", ModeHorse, scanPayload(t))
	if err != nil {
		t.Fatal(err)
	}
	tc.Complete(trigtrace.Outcome{Served: inv.Mode.String(), Latency: inv.Total()})
	if inv.Mode != ModeRestore {
		t.Fatalf("served mode = %v, want restore", inv.Mode)
	}
	m := p.Hypervisor().Metrics()
	if got := m.Counter("faas_retries_total").Value(); got != DefaultMaxRetries {
		t.Fatalf("retries = %d, want %d", got, DefaultMaxRetries)
	}
	if got := m.Counter("faas_trigger_failures_total", "site", "resume").Value(); got != 1 {
		t.Fatalf("resume failures = %d, want 1", got)
	}
	// Exponential backoff: 500ns, 1µs, then 2µs of virtual time, all
	// spent at the horse position.
	traces := rec.Traces()
	if len(traces) != 1 {
		t.Fatalf("retained traces = %d, want 1", len(traces))
	}
	var backoffs []simtime.Duration
	for _, st := range traces[0].Stages {
		if st.Stage != trigtrace.StageRetryBackoff {
			continue
		}
		if st.Mode != ModeHorse.String() {
			t.Fatalf("backoff recorded under mode %q, want horse", st.Mode)
		}
		backoffs = append(backoffs, st.Dur)
	}
	want := []simtime.Duration{500 * simtime.Nanosecond, 1000 * simtime.Nanosecond, 2000 * simtime.Nanosecond}
	if !reflect.DeepEqual(backoffs, want) {
		t.Fatalf("backoffs = %v, want %v", backoffs, want)
	}
	// Entry failures leave the sandbox paused and prepared: it must be
	// re-pooled, and the gauge must agree with the pool.
	horse := 0
	for _, ps := range d.pool {
		if ps.policy == core.Horse {
			horse++
		}
	}
	if horse != 1 {
		t.Fatalf("horse-armed pool = %d after retry exhaustion, want 1", horse)
	}
	if got := m.Gauge("faas_warm_pool_size").Value(); got != int64(d.WarmPoolSize()) {
		t.Fatalf("pool gauge = %d, pool = %d", got, d.WarmPoolSize())
	}
	// Only then does the chain advance: horse → warm → restore.
	for _, hop := range []struct{ from, to string }{
		{"horse", "warm"},
		{"warm", "restore"},
	} {
		if got := m.Counter("faas_fallbacks_total", "from", hop.from, "to", hop.to).Value(); got != 1 {
			t.Fatalf("fallbacks{%s->%s} = %d, want 1", hop.from, hop.to, got)
		}
	}
}

// TestPoolExhaustionFallsBack walks the default chain: horse misses the
// pool, warm misses the pool, restore serves.
func TestPoolExhaustionFallsBack(t *testing.T) {
	p := newFaultyPlatform(t, nil, FallbackConfig{Enabled: true})
	registerScan(t, p)
	inv, err := p.Trigger("scan", ModeHorse, scanPayload(t))
	if err != nil {
		t.Fatal(err)
	}
	if inv.Mode != ModeRestore {
		t.Fatalf("served mode = %v, want restore", inv.Mode)
	}
	m := p.Hypervisor().Metrics()
	for _, hop := range []struct{ from, to string }{
		{"horse", "warm"},
		{"warm", "restore"},
	} {
		if got := m.Counter("faas_fallbacks_total", "from", hop.from, "to", hop.to).Value(); got != 1 {
			t.Fatalf("fallbacks{%s->%s} = %d, want 1", hop.from, hop.to, got)
		}
	}
	if got := m.Counter("faas_trigger_failures_total", "site", "pool").Value(); got != 2 {
		t.Fatalf("pool failures = %d, want 2 (horse miss + warm miss)", got)
	}
	// The requested mode, not the serving mode, is what was triggered.
	if got := m.Counter("faas_triggers_total", "mode", "horse").Value(); got != 1 {
		t.Fatalf("triggers{horse} = %d, want 1", got)
	}
}

// TestFallbackDisabledPreservesStrictErrors pins the pre-degradation
// contract: without fallback a pool miss is an error, not a colder
// start.
func TestFallbackDisabledPreservesStrictErrors(t *testing.T) {
	p := newPlatform(t)
	registerScan(t, p)
	if _, err := p.Trigger("scan", ModeHorse, scanPayload(t)); !errors.Is(err, ErrNoWarmSandbox) {
		t.Fatalf("err = %v, want ErrNoWarmSandbox", err)
	}
}

// TestWarmMissLeavesClockUntouched is the regression test for the miss
// clock skew: the dispatch cost must only be charged once a sandbox was
// actually taken from the pool.
func TestWarmMissLeavesClockUntouched(t *testing.T) {
	p := newPlatform(t)
	registerScan(t, p)
	before := p.Clock().Now()
	if _, err := p.Trigger("scan", ModeWarm, scanPayload(t)); !errors.Is(err, ErrNoWarmSandbox) {
		t.Fatalf("err = %v, want ErrNoWarmSandbox", err)
	}
	if now := p.Clock().Now(); now != before {
		t.Fatalf("warm miss advanced the clock %v", now.Sub(before))
	}
}

// TestReapDestroyErrorKeepsPoolConsistent is the regression test for the
// in-place filter corruption: a mid-sweep destroy failure must leave the
// pool holding exactly the undestroyed sandboxes, in agreement with the
// gauge, and a later sweep finishes the job.
func TestReapDestroyErrorKeepsPoolConsistent(t *testing.T) {
	inj := mustInjector(t, 1, faultinject.Rule{Site: faultinject.SiteDestroy, Nth: 2})
	p := newFaultyPlatform(t, inj, FallbackConfig{})
	if _, err := p.Register(workload.NewScan(1), SandboxSpec{VCPUs: 1, MemoryMB: 128}); err != nil {
		t.Fatal(err)
	}
	if err := p.Provision("scan", 3, core.Horse); err != nil {
		t.Fatal(err)
	}
	p.Clock().Advance(2 * DefaultKeepAlive)
	n, err := p.Reap()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("reap err = %v, want injected destroy fault", err)
	}
	if n != 1 {
		t.Fatalf("reaped = %d, want 1 before the failure", n)
	}
	d, _ := p.Deployment("scan")
	m := p.Hypervisor().Metrics()
	if d.WarmPoolSize() != 2 {
		t.Fatalf("pool = %d after failed sweep, want 2", d.WarmPoolSize())
	}
	if got := m.Gauge("faas_warm_pool_size").Value(); got != int64(d.WarmPoolSize()) {
		t.Fatalf("pool gauge = %d, pool = %d", got, d.WarmPoolSize())
	}
	if p.Reaped() != 1 {
		t.Fatalf("Reaped() = %d, want 1", p.Reaped())
	}
	// The surviving entries are intact — still paused, still prepared —
	// so the next sweep (the nth=2 fault is one-shot) reaps them all.
	n, err = p.Reap()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || d.WarmPoolSize() != 0 {
		t.Fatalf("second sweep reaped %d, pool %d; want 2 and 0", n, d.WarmPoolSize())
	}
	if got := m.Gauge("faas_warm_pool_size").Value(); got != 0 {
		t.Fatalf("pool gauge = %d after full sweep, want 0", got)
	}
	if n := p.Hypervisor().Sandboxes(); n != 0 {
		t.Fatalf("hypervisor sandboxes = %d, want 0", n)
	}
}

// TestReplayContinuesPastInjectedFaults drives a replay through an
// injected function crash: the casualty is recorded, the replay keeps
// going, and the next arrival degrades to a colder start because the
// crashed sandbox was destroyed.
func TestReplayContinuesPastInjectedFaults(t *testing.T) {
	inj := mustInjector(t, 3, faultinject.Rule{Site: faultinject.SiteInvoke, Nth: 2})
	p := newFaultyPlatform(t, inj, FallbackConfig{Enabled: true})
	registerScan(t, p)
	if err := p.Provision("scan", 1, core.Horse); err != nil {
		t.Fatal(err)
	}
	arrivals := replayArrivals(0,
		simtime.Time(10*simtime.Microsecond),
		simtime.Time(20*simtime.Microsecond))
	report, err := p.Replay(arrivals, ModeHorse, scanPayloads(t))
	if err != nil {
		t.Fatalf("replay aborted: %v", err)
	}
	if report.Invocations != 2 || len(report.Failures) != 1 {
		t.Fatalf("report = %+v, want 2 invocations and 1 failure", report)
	}
	f := report.Failures[0]
	if f.Function != "scan" || f.Mode != ModeHorse {
		t.Fatalf("failure = %+v", f)
	}
	if !strings.Contains(f.Err, "invocation failed") {
		t.Fatalf("failure err = %q, want the invoke-failure cause", f.Err)
	}
	m := p.Hypervisor().Metrics()
	if got := m.Counter("faas_trigger_failures_total", "site", "invoke").Value(); got != 1 {
		t.Fatalf("invoke failures = %d, want 1", got)
	}
}

// faultRunSnapshot is everything a fault-injected run must reproduce
// bit-for-bit under the same seed.
type faultRunSnapshot struct {
	Report    ReplayReport
	Failures  map[string]uint64
	Fallbacks map[string]uint64
	Retries   uint64
}

func runFaultyReplay(t *testing.T, seed int64) faultRunSnapshot {
	t.Helper()
	inj := mustInjector(t, seed,
		faultinject.Rule{Site: faultinject.SiteResume, Rate: 0.35, Err: vmm.ErrResumeBusy},
		faultinject.Rule{Site: faultinject.SiteInvoke, Rate: 0.05},
	)
	p := newFaultyPlatform(t, inj, FallbackConfig{Enabled: true})
	registerScan(t, p)
	if err := p.Provision("scan", 2, core.Horse); err != nil {
		t.Fatal(err)
	}
	arrivals := make([]trace.Arrival, 0, 60)
	for i := 0; i < 60; i++ {
		arrivals = append(arrivals, trace.Arrival{
			At:       simtime.Time(simtime.Duration(i) * 2 * simtime.Microsecond),
			Function: "scan",
		})
	}
	report, err := p.Replay(arrivals, ModeHorse, scanPayloads(t))
	if err != nil {
		t.Fatalf("fault-injected replay aborted: %v", err)
	}
	m := p.Hypervisor().Metrics()
	snap := faultRunSnapshot{
		Report:    report,
		Failures:  make(map[string]uint64),
		Fallbacks: make(map[string]uint64),
		Retries:   m.Counter("faas_retries_total").Value(),
	}
	for _, site := range []string{"create", "pause", "resume", "restore", "invoke", "pool"} {
		if v := m.Counter("faas_trigger_failures_total", "site", site).Value(); v > 0 {
			snap.Failures[site] = v
		}
	}
	modes := []StartMode{ModeHorse, ModeWarm, ModeRestore, ModeCold}
	for i, from := range modes[:len(modes)-1] {
		to := modes[i+1]
		if v := m.Counter("faas_fallbacks_total", "from", from.String(), "to", to.String()).Value(); v > 0 {
			snap.Fallbacks[from.String()+"->"+to.String()] = v
		}
	}
	return snap
}

// TestFaultInjectionDeterminism is the acceptance check: two runs under
// the same seed produce identical failure and fallback counts and
// identical replay percentiles; a different seed produces a different
// fault pattern.
func TestFaultInjectionDeterminism(t *testing.T) {
	a := runFaultyReplay(t, 42)
	b := runFaultyReplay(t, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n a = %+v\n b = %+v", a, b)
	}
	if a.Retries == 0 && len(a.Fallbacks) == 0 {
		t.Fatalf("run exercised no degradation machinery: %+v", a)
	}
	c := runFaultyReplay(t, 43)
	if reflect.DeepEqual(a.Report, c.Report) && reflect.DeepEqual(a.Failures, c.Failures) {
		t.Fatal("different seeds produced identical fault patterns")
	}
}
