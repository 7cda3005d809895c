package loadgen

import (
	"testing"

	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/simtime"
)

// sinkArrival keeps the pinned pulls from being optimized away.
var sinkArrival Arrival

// Allocation pins for the per-arrival path: a cluster run pulls every
// arrival through Stream.Next, so merging the sources, drawing the mode
// and drawing the source's next instant must be allocation-free.
func TestHotPathAllocFree(t *testing.T) {
	ws := []Workload{
		{Function: "scan", Spec: Spec{Kind: KindPoisson, Rate: 1e6}, Mix: SingleMode(faas.ModeHorse)},
		{Function: "nat", Spec: Spec{Kind: KindPoisson, Rate: 2e6}, Mix: ModeMix{{Mode: faas.ModeHorse, Weight: 3}, {Mode: faas.ModeWarm, Weight: 1}}},
		{Function: "burst", Spec: Spec{Kind: KindOnOff, Rate: 5e6, On: simtime.Millisecond, Off: 4 * simtime.Millisecond}, Mix: SingleMode(faas.ModeWarm)},
	}
	g, err := New(42, ws, Options{})
	if err != nil {
		t.Fatal(err)
	}
	end := simtime.Time(0).Add(simtime.Second)
	s, err := g.Stream(0, end)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		a, ok := s.Next(end)
		if !ok {
			t.Fatal("stream exhausted early")
		}
		sinkArrival = a
	}); n != 0 {
		t.Errorf("Stream.Next allocates %v per arrival, want 0", n)
	}
}
