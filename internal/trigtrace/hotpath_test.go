package trigtrace

import "testing"

// Allocation sinks keep the pinned calls from being optimized away.
var (
	sinkBool bool
	sinkInt  int
)

// Allocation pins for every //horselint:hotpath function in this
// package: the annotated Context accessors must be allocation-free on
// both an armed context and the inert zero value the disabled path
// hands to every trigger.
func TestHotPathAllocFree(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Seed: 1})
	tc := rec.Start(1, "echo", "horse", 0, 1000)
	var inert Context

	if n := testing.AllocsPerRun(100, func() {
		sinkBool = tc.Active() || inert.Active()
	}); n != 0 {
		t.Errorf("Context.Active allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		tc.SetNode("node-0")
		inert.SetNode("node-0")
	}); n != 0 {
		t.Errorf("Context.SetNode allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		tc.SetTenant("acme")
		inert.SetTenant("acme")
	}); n != 0 {
		t.Errorf("Context.SetTenant allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkInt = tc.Mark() + inert.Mark()
	}); n != 0 {
		t.Errorf("Context.Mark allocates %v per run, want 0", n)
	}
}
