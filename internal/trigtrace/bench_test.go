package trigtrace

import (
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
)

// benchStages replays the stage sequence of one clean horse-path
// trigger — the exact call shape cluster.Trigger and faas emit per
// arrival.
func benchStages(tc Context) {
	tc.RecordOn(StagePlacement, 0, 0, "node-0", "", "least-loaded")
	tc.RecordOn(StageQueueWait, 0, 100, "", "", "")
	tc.RecordOn(StagePoolTake, 100, 0, "node-0", "horse", "")
	tc.RecordOn(StageResume, 100, 200, "node-0", "horse", "")
	tc.RecordOn(StageInvoke, 300, 300, "node-0", "horse", "")
	tc.RecordOn(StageRepool, 600, 50, "node-0", "horse", "")
	tc.Complete(Outcome{Served: "horse", Node: "node-0", Latency: 600})
}

// BenchmarkContextDisabled measures the tracing cost on the trigger hot
// path when no recorder is armed: one Start plus the full stage
// sequence against an inert Context. This path must stay under 10 ns/op
// with zero allocations so the instrumentation can remain wired through
// cluster and faas unconditionally (budget pinned in BENCH_trace.json).
func BenchmarkContextDisabled(b *testing.B) {
	var rec *Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := rec.Start(uint64(i), "echo", "horse", 0, 1000)
		benchStages(tc)
	}
}

// BenchmarkContextEnabled is the enabled-path reference point: the full
// per-trigger cost of minting a trace, recording six stages, and
// folding the finished trace into the attribution aggregates and flight
// recorder.
func BenchmarkContextEnabled(b *testing.B) {
	rec := NewRecorder(RecorderOptions{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := rec.Start(uint64(i), "echo", "horse", 0, 1000)
		benchStages(tc)
	}
}

// BenchmarkContextClaimed is the per-trigger cost a cluster run pays:
// the claim's Start, four serving stages and Complete, none of which
// locks, because the claim holds the recorder's mutex for the run.
func BenchmarkContextClaimed(b *testing.B) {
	claim, err := NewRecorder(RecorderOptions{Seed: 1}).Claim()
	if err != nil {
		b.Fatal(err)
	}
	defer claim.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := claim.Start(uint64(i), "echo", "horse", 0, 1000)
		tc.RecordOn(StageQueueWait, 0, 100, "node-0", "", "")
		tc.RecordOn(StagePoolTake, 100, 0, "node-0", "horse", "")
		tc.RecordOn(StageResume, 100, 200, "node-0", "horse", "")
		tc.RecordOn(StageInvoke, 300, 300, "node-0", "horse", "")
		tc.Complete(Outcome{Served: "horse", Node: "node-0", Latency: 600})
	}
}

// BenchmarkFlightOffer isolates the flight recorder's per-trace
// retention decision on the common dropped path (in-SLO trigger, score
// below the worst-K floor).
func BenchmarkFlightOffer(b *testing.B) {
	rec := NewRecorder(RecorderOptions{Seed: 1, WorstK: 8})
	for i := 0; i < 8; i++ {
		tc := rec.Start(uint64(i), "seed", "horse", 0, 0)
		tc.RecordOn(StageInvoke, 0, simtime.Duration(1_000_000+i), "", "", "")
		tc.Complete(Outcome{Served: "horse", Latency: simtime.Duration(1_000_000 + i)})
	}
	tr := &TriggerTrace{EndToEnd: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.offer(tr, false)
		// The declined trace went to the free list; take it back so
		// the one trace can be offered again.
		rec.free = rec.free[:0]
	}
}

// TestDisabledPathAllocationFree pins the zero-allocation half of the
// disabled-path budget in the test suite, where it fails loudly even
// when benchmarks are not run; the ns/op half lives in BENCH_trace.json.
func TestDisabledPathAllocationFree(t *testing.T) {
	var rec *Recorder
	if avg := testing.AllocsPerRun(100, func() {
		tc := rec.Start(0, "echo", "horse", 0, 1000)
		benchStages(tc)
	}); avg != 0 {
		t.Fatalf("disabled trace path allocates %.1f objects per trigger, want 0", avg)
	}
}
