package telemetry

import (
	"strings"
	"sync"
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
)

func TestInstrumentNameAndFamily(t *testing.T) {
	if got := InstrumentName("x_total"); got != "x_total" {
		t.Fatalf("unlabelled = %q", got)
	}
	got := InstrumentName("x_total", "mode", "horse", "vcpus", "36")
	want := `x_total{mode="horse",vcpus="36"}`
	if got != want {
		t.Fatalf("labelled = %q, want %q", got, want)
	}
	if Family(got) != "x_total" {
		t.Fatalf("family = %q", Family(got))
	}
}

func TestRegistryInstrumentsAccumulate(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Inc()
	r.Counter("hits_total").Add(2)
	r.Counter("hits_total", "mode", "horse").Inc()
	r.Gauge("pool_size").Set(7)
	r.Gauge("pool_size").Add(-2)
	h := r.Histogram("resume_ns", "policy", "horse")
	h.Observe(150 * simtime.Nanosecond)
	h.Observe(150 * simtime.Nanosecond)
	h.Observe(10 * simtime.Microsecond) // overflow

	snap := r.Snapshot()
	if snap.Counters["hits_total"] != 3 {
		t.Fatalf("hits_total = %d", snap.Counters["hits_total"])
	}
	if snap.Counters[`hits_total{mode="horse"}`] != 1 {
		t.Fatalf("labelled counter = %d", snap.Counters[`hits_total{mode="horse"}`])
	}
	if snap.Gauges["pool_size"] != 5 {
		t.Fatalf("pool_size = %d", snap.Gauges["pool_size"])
	}
	hs, ok := snap.Histograms[`resume_ns{policy="horse"}`]
	if !ok {
		t.Fatalf("histogram missing; names = %v", r.Names())
	}
	if hs.Count != 3 || hs.Overflow != 1 {
		t.Fatalf("count=%d overflow=%d", hs.Count, hs.Overflow)
	}
	if hs.SumNanos != 150+150+10000 {
		t.Fatalf("sum = %d", hs.SumNanos)
	}
	// 150ns falls in bucket [150,200): upper bound 200.
	if hs.P50Nanos != 200 {
		t.Fatalf("p50 = %d", hs.P50Nanos)
	}
	if hs.WindowCount != 3 || hs.WindowMaxNs != 10000 {
		t.Fatalf("window count=%d max=%d", hs.WindowCount, hs.WindowMaxNs)
	}

	// The scrape cycle drained the window; cumulative state survives.
	snap2 := r.Snapshot()
	hs2 := snap2.Histograms[`resume_ns{policy="horse"}`]
	if hs2.WindowCount != 0 {
		t.Fatalf("window not drained: %d", hs2.WindowCount)
	}
	if hs2.Count != 3 {
		t.Fatalf("cumulative count lost: %d", hs2.Count)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z").Observe(1)
	if v := r.Counter("x").Value(); v != 0 {
		t.Fatalf("nil counter = %d", v)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	if r.Names() != nil {
		t.Fatal("nil registry has names")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("ops_total").Inc()
				r.Counter("ops_total", "mode", string(rune('a'+g%4))).Inc()
				r.Gauge("depth").Add(1)
				r.Histogram("lat_ns").Observe(simtime.Duration(i % 300))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("ops_total").Value(); got != 8*500 {
		t.Fatalf("ops_total = %d, want 4000", got)
	}
	if got := r.Gauge("depth").Value(); got != 8*500 {
		t.Fatalf("depth = %d", got)
	}
	names := r.Names()
	if len(names) == 0 || !strings.Contains(strings.Join(names, ","), "lat_ns") {
		t.Fatalf("names = %v", names)
	}
}
