package telemetry

import "testing"

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
