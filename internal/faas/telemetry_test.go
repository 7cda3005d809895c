package faas

import (
	"sync"
	"testing"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
	"github.com/horse-faas/horse/internal/testutil"
	"github.com/horse-faas/horse/internal/trigtrace"
	"github.com/horse-faas/horse/internal/vmm"
	"github.com/horse-faas/horse/internal/workload"
)

func newTracedPlatform(t *testing.T, tr *telemetry.Tracer, m *telemetry.Registry) *Platform {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	p, err := New(Options{Tracer: tr, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTriggerEmitsSpansAndMetrics(t *testing.T) {
	tr := telemetry.NewTracer(telemetry.TracerOptions{})
	m := telemetry.NewRegistry()
	p := newTracedPlatform(t, tr, m)
	registerScan(t, p)
	if err := p.Provision("scan", 1, core.Horse); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Trigger("scan", ModeHorse, scanPayload(t)); err != nil {
		t.Fatal(err)
	}

	byName := map[string]telemetry.Span{}
	for _, sp := range tr.Spans() {
		byName[sp.Name] = sp
	}
	inv, ok := byName["invocation"]
	if !ok {
		t.Fatalf("no invocation span; got %v", names(tr.Spans()))
	}
	if mode, _ := inv.Attr("mode"); mode != "horse" {
		t.Fatalf("invocation mode attr = %q", mode)
	}
	var sawExec bool
	for _, ev := range inv.Events {
		if ev.Name == "exec" && ev.Dur > 0 {
			sawExec = true
		}
	}
	if !sawExec {
		t.Fatalf("invocation events = %+v", inv.Events)
	}
	res, ok := byName["resume"]
	if !ok {
		t.Fatalf("no resume span; got %v", names(tr.Spans()))
	}
	// The resume nests under the invocation via the implicit span stack.
	if res.Parent != inv.ID {
		t.Fatalf("resume parent = %d, want invocation %d", res.Parent, inv.ID)
	}
	var sawFast bool
	for _, ev := range res.Events {
		if ev.Name == vmm.StepFastPath {
			sawFast = true
		}
	}
	if !sawFast {
		t.Fatalf("resume events = %+v", res.Events)
	}

	snap := m.Snapshot()
	if snap.Counters[`faas_triggers_total{mode="horse"}`] != 1 {
		t.Fatalf("counters = %v", snap.Counters)
	}
	if snap.Counters["faas_warm_pool_hits_total"] != 1 {
		t.Fatalf("pool hits = %d", snap.Counters["faas_warm_pool_hits_total"])
	}
	if snap.Counters[`vmm_resumes_total{policy="horse"}`] != 1 {
		t.Fatalf("vmm counters = %v", snap.Counters)
	}
	// Trigger re-pauses the sandbox into the pool: gauge back at 1.
	if snap.Gauges["faas_warm_pool_size"] != 1 {
		t.Fatalf("pool gauge = %d", snap.Gauges["faas_warm_pool_size"])
	}
	if _, ok := snap.Histograms[`vmm_resume_ns{policy="horse"}`]; !ok {
		t.Fatalf("histograms = %v", snap.Histograms)
	}
}

// TestTracedTriggerStampsSpans checks that with the span tracer enabled
// a traced trigger still stamps its trace ID onto the invocation span
// and the pause/resume spans the hypervisor opens under it. (With the
// tracer disabled the stamp is skipped, and no span is recorded to
// carry it.)
func TestTracedTriggerStampsSpans(t *testing.T) {
	tr := telemetry.NewTracer(telemetry.TracerOptions{})
	p := newTracedPlatform(t, tr, nil)
	registerScan(t, p)
	if err := p.Provision("scan", 1, core.Horse); err != nil {
		t.Fatal(err)
	}
	rec := trigtrace.NewRecorder(trigtrace.RecorderOptions{Seed: 9})
	tc := rec.Start(0, "scan", ModeHorse.String(), p.Clock().Now(), simtime.Millisecond)
	if _, err := p.TriggerTraced(tc, nil, "scan", ModeHorse, scanPayload(t)); err != nil {
		t.Fatal(err)
	}
	want := trigtrace.NewTraceID(9, 0).String()
	stamped := map[string]bool{}
	for _, sp := range tr.Spans() {
		if id, ok := sp.Attr("trigger"); ok {
			if id != want {
				t.Fatalf("%s span trigger attr = %q, want %q", sp.Name, id, want)
			}
			stamped[sp.Name] = true
		}
	}
	for _, name := range []string{"invocation", "resume", "pause"} {
		if !stamped[name] {
			t.Errorf("%s span carries no trigger attribute; stamped: %v (spans %v)", name, stamped, names(tr.Spans()))
		}
	}
}

func TestPoolMissAndShrinkMetrics(t *testing.T) {
	m := telemetry.NewRegistry()
	p := newTracedPlatform(t, nil, m)
	registerScan(t, p)
	if _, err := p.Trigger("scan", ModeWarm, scanPayload(t)); err == nil {
		t.Fatal("warm trigger on empty pool succeeded")
	}
	if got := m.Counter("faas_warm_pool_misses_total").Value(); got != 1 {
		t.Fatalf("misses = %d", got)
	}

	if err := p.Provision("scan", 2, core.Vanilla); err != nil {
		t.Fatal(err)
	}
	if got := m.Gauge("faas_warm_pool_size").Value(); got != 2 {
		t.Fatalf("pool gauge after provision = %d", got)
	}
	if err := p.ScaleTo("scan", 0, core.Vanilla); err != nil {
		t.Fatal(err)
	}
	if got := m.Gauge("faas_warm_pool_size").Value(); got != 0 {
		t.Fatalf("pool gauge after shrink = %d", got)
	}
}

// TestConcurrentTracedReplays drives independent platforms in parallel
// goroutines, each with tracing enabled and all sharing one metrics
// registry — the shape `go test -race` exercises to prove the telemetry
// layer is safe under concurrent simulations. Each platform gets its own
// tracer because a tracer reads its attached virtual clock, and clocks
// are single-goroutine simulation objects; the registry is the sink
// designed for cross-goroutine sharing.
func TestConcurrentTracedReplays(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	m := telemetry.NewRegistry()

	const replays = 4
	tracers := make([]*telemetry.Tracer, replays)
	for i := range tracers {
		tracers[i] = telemetry.NewTracer(telemetry.TracerOptions{Capacity: 1024})
	}
	var wg sync.WaitGroup
	errs := make([]error, replays)
	for i := 0; i < replays; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				p, err := New(Options{Tracer: tracers[i], Metrics: m})
				if err != nil {
					return err
				}
				if _, err := p.Register(workload.NewScan(1), SandboxSpec{VCPUs: 2, MemoryMB: 512}); err != nil {
					return err
				}
				if err := p.Provision("scan", 1, core.Horse); err != nil {
					return err
				}
				arrivals := replayArrivals(0,
					simtime.Time(10*simtime.Microsecond),
					simtime.Time(20*simtime.Microsecond),
					simtime.Time(30*simtime.Microsecond))
				_, err = p.Replay(arrivals, ModeHorse, scanPayloads(t))
				return err
			}()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
	}
	snap := m.Snapshot()
	if got := snap.Counters[`faas_triggers_total{mode="horse"}`]; got != replays*4 {
		t.Fatalf("triggers = %d, want %d", got, replays*4)
	}
	if got := snap.Counters["horse_splice_ops_total"]; got != replays*4 {
		t.Fatalf("splices = %d, want %d", got, replays*4)
	}
	// Every platform recorded a replay span and per-trigger spans.
	var replaySpans int
	for _, tr := range tracers {
		for _, sp := range tr.Spans() {
			if sp.Name == "replay" {
				replaySpans++
			}
		}
	}
	if replaySpans != replays {
		t.Fatalf("replay spans = %d, want %d", replaySpans, replays)
	}
}

func names(spans []telemetry.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}
