package faas

import (
	"slices"
	"sync"
	"testing"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
	"github.com/horse-faas/horse/internal/testutil"
	"github.com/horse-faas/horse/internal/trace"
	"github.com/horse-faas/horse/internal/trigtrace"
	"github.com/horse-faas/horse/internal/workload"
)

func newMeteredPlatform(t *testing.T, m *telemetry.Registry) *Platform {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	p, err := New(Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTriggerEmitsSpansAndMetrics checks what one traced HORSE trigger
// leaves behind: its stage spans in the trigger trace, in causal order
// and reconciling with its latency, and the platform and hypervisor
// metrics.
func TestTriggerEmitsSpansAndMetrics(t *testing.T) {
	m := telemetry.NewRegistry()
	p := newMeteredPlatform(t, m)
	registerScan(t, p)
	if err := p.Provision("scan", 1, core.Horse); err != nil {
		t.Fatal(err)
	}
	rec := trigtrace.NewRecorder(trigtrace.RecorderOptions{Seed: 9})
	tc := rec.Start(0, "scan", ModeHorse.String(), p.Clock().Now(), simtime.Millisecond)
	inv, err := p.TriggerTraced(tc, nil, "scan", ModeHorse, scanPayload(t))
	if err != nil {
		t.Fatal(err)
	}
	tc.Complete(trigtrace.Outcome{Served: inv.Mode.String(), Latency: inv.Total()})

	traces := rec.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	var stages []trigtrace.Stage
	for _, s := range traces[0].Stages {
		stages = append(stages, s.Stage)
		if s.Mode != "horse" {
			t.Fatalf("%s stage mode = %q", s.Stage, s.Mode)
		}
	}
	want := []trigtrace.Stage{trigtrace.StagePoolTake, trigtrace.StageResume, trigtrace.StageInvoke, trigtrace.StageRepool}
	if !slices.Equal(stages, want) {
		t.Fatalf("stages = %v, want %v", stages, want)
	}
	if got := traces[0].Stages[2].Dur; got != inv.Exec || got <= 0 {
		t.Fatalf("invoke stage = %v, exec = %v", got, inv.Exec)
	}
	if rec.ReconcileFailures() != 0 {
		t.Fatalf("reconcile failures = %d", rec.ReconcileFailures())
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

// TestTracedReplayUnderFaults replays a burst through injected resume
// faults with the fallback chain on, plus one function crash and one
// arrival for an undeployed function. Every arrival the replay fires
// gets exactly one trace under its arrival index; the serving stages of
// every trace, queued and fallen back ones included, sum to its
// latency; and a failed trigger's trace carries the replay's error.
func TestTracedReplayUnderFaults(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	inj, err := faultinject.FromSpec(4, "resume:rate=0.2,invoke:nth=9")
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	rec := trigtrace.NewRecorder(trigtrace.RecorderOptions{Seed: 4, WorstK: n})
	p, err := New(Options{Tracer: rec, Faults: inj, Fallback: FallbackConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	registerScan(t, p)
	if err := p.Provision("scan", 2, core.Horse); err != nil {
		t.Fatal(err)
	}
	arrivals := make([]trace.Arrival, n)
	for i := range arrivals {
		arrivals[i] = trace.Arrival{At: simtime.Time(simtime.Duration(i) * 5 * simtime.Microsecond), Function: "scan"}
	}
	arrivals[7].Function = "undeployed"
	base := p.Clock().Now()
	report, err := p.Replay(arrivals, ModeHorse, scanPayloads(t))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if report.Skipped != 1 || len(report.Failures) == 0 {
		t.Fatalf("report = %+v, want one skip and some failures", report)
	}

	traces := rec.Traces()
	if len(traces) != n-1 {
		t.Fatalf("traces = %d, want one per fired arrival (%d)", len(traces), n-1)
	}
	failed := map[simtime.Duration]string{}
	for _, f := range report.Failures {
		failed[f.At] = f.Err
	}
	var queued, fellBack int
	for k, tr := range traces {
		seq := uint64(k)
		if k >= 7 {
			seq++ // arrival 7 was skipped
		}
		at := tr.Arrival.Sub(base)
		if tr.Seq != seq || at != simtime.Duration(arrivals[seq].At) {
			t.Fatalf("trace %d: seq %d at +%v, want arrival %d at +%v", k, tr.Seq, at, seq, arrivals[seq].At)
		}
		if want, ok := failed[at]; ok {
			if tr.Err != want || tr.Err == "" || tr.Served != "" {
				t.Fatalf("failed trigger %d: trace err %q served %q, want err %q", seq, tr.Err, tr.Served, want)
			}
			continue
		}
		if tr.Err != "" || tr.Served == "" {
			t.Fatalf("trigger %d: trace err %q served %q", seq, tr.Err, tr.Served)
		}
		if tr.Stages[0].Stage != trigtrace.StageQueueWait {
			t.Fatalf("trigger %d: first stage %s, want queue-wait", seq, tr.Stages[0].Stage)
		}
		if tr.Stages[0].Dur > 0 {
			queued++
		}
		if tr.Served != tr.Requested {
			fellBack++
		}
	}
	if queued == 0 || fellBack == 0 {
		t.Fatalf("queued %d, fell back %d: the burst exercised neither", queued, fellBack)
	}
	if got := rec.ReconcileFailures(); got != 0 {
		t.Fatalf("reconcile failures = %d, want 0", got)
	}
	if got := rec.Violations(); got != uint64(len(report.Failures)) {
		t.Fatalf("violations = %d, want the %d failures", got, len(report.Failures))
	}
}

func TestPoolMissAndShrinkMetrics(t *testing.T) {
	m := telemetry.NewRegistry()
	p := newMeteredPlatform(t, m)
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
// goroutines, each tracing its replay into its own trigger recorder and
// all sharing one metrics registry, which the recorders report into
// too — the shape `go test -race` exercises to prove the telemetry
// layer is safe under concurrent simulations. A recorder takes one run
// at a time (Claim), so each replay gets its own; the registry is the
// sink designed for cross-goroutine sharing.
func TestConcurrentTracedReplays(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	m := telemetry.NewRegistry()

	const replays = 4
	recs := make([]*trigtrace.Recorder, replays)
	for i := range recs {
		recs[i] = trigtrace.NewRecorder(trigtrace.RecorderOptions{Seed: int64(i), Metrics: m})
	}
	var wg sync.WaitGroup
	errs := make([]error, replays)
	for i := 0; i < replays; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				p, err := New(Options{Tracer: recs[i], Metrics: m})
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
	if got := snap.Counters["trigtrace_traces_total"]; got != replays*4 {
		t.Fatalf("traces = %d, want %d", got, replays*4)
	}
	// Every recorder kept its own replay's four traces.
	for i, rec := range recs {
		if got := len(rec.Traces()); got != 4 {
			t.Fatalf("recorder %d kept %d traces, want 4", i, got)
		}
		if got := rec.ReconcileFailures(); got != 0 {
			t.Fatalf("recorder %d: %d reconcile failures", i, got)
		}
	}
}
