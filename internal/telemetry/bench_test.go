package telemetry

import (
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
)

// BenchmarkTracerNil measures the instrumentation cost on the resume
// fast path when tracing is off (a nil tracer, the default when a
// Hypervisor is built without telemetry options): one StartSpan + Attr
// + Step + End per iteration, the exact shape vmm's
// BeginResume/Charge/Finish emit. The no-op path must stay under 10
// ns/op with zero allocations so tracing can remain wired through the
// hot path unconditionally (see BENCH_telemetry.json for the committed
// baseline). The tracer is read from a package variable each iteration,
// as vmm reads its hypervisor's field, so the compiler cannot prove it
// nil and drop the checks.
func BenchmarkTracerNil(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := nilTracer
		sp := tr.StartSpan("resume")
		sp.Attr("policy", "horse")
		sp.Step("psm-merge", 110)
		sp.End()
	}
}

// nilTracer is the disabled tracer BenchmarkTracerNil reads.
var nilTracer *Tracer

// BenchmarkTracerEnabled is the enabled-path reference point.
func BenchmarkTracerEnabled(b *testing.B) {
	tr := NewTracer(TracerOptions{Capacity: 1024})
	clock := simtime.NewClock()
	tr.AttachClock(clock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan("resume")
		sp.Attr("policy", "horse")
		sp.Step("psm-merge", 110)
		sp.End()
	}
}

// BenchmarkRegistryCounter measures one labelled counter increment, the
// per-trigger metrics cost.
func BenchmarkRegistryCounter(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Counter("faas_triggers_total", "mode", "horse").Inc()
	}
}
