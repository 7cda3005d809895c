package telemetry

import "testing"

// Allocation pins for every //horselint:hotpath function in this
// package (the allocpin analyzer requires one per annotation): the
// static verdict is "transitively allocation-free", so AllocsPerRun
// must measure exactly zero, on live instruments and on the nil inert
// ones a nil Registry hands out.
func TestHotPathAllocFree(t *testing.T) {
	c := &Counter{}
	g := &Gauge{}
	var nilC *Counter
	var nilG *Gauge

	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		nilC.Inc()
	}); n != 0 {
		t.Errorf("Counter.Inc allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		c.Add(3)
		nilC.Add(3)
	}); n != 0 {
		t.Errorf("Counter.Add allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		g.Set(7)
		nilG.Set(7)
	}); n != 0 {
		t.Errorf("Gauge.Set allocates %v per run, want 0", n)
	}
}
