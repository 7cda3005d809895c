package horse_test

import (
	"bytes"
	"reflect"
	"testing"

	horse "github.com/horse-faas/horse"
	"github.com/horse-faas/horse/internal/trace"
)

// TestFacadeCostModels covers the two prototype flavors.
func TestFacadeCostModels(t *testing.T) {
	fc := horse.DefaultCostModel()
	xen := horse.XenCostModel()
	if fc.HorseFixed+fc.PSMMerge+fc.CoalescedUpdate != 150*horse.Nanosecond {
		t.Fatalf("Firecracker fast path sums to %v, want 150ns",
			fc.HorseFixed+fc.PSMMerge+fc.CoalescedUpdate)
	}
	if xen.HorseFixed+xen.PSMMerge+xen.CoalescedUpdate != 150*horse.Nanosecond {
		t.Fatal("Xen fast path must share the constant 150ns")
	}
	if xen.Parse == fc.Parse {
		t.Fatal("Xen flavor should differ from Firecracker on the slow path")
	}
}

// TestFacadePlatformWith covers explicit platform options (Xen flavor,
// several ull queues).
func TestFacadePlatformWith(t *testing.T) {
	p, err := horse.NewPlatformWith(horse.PlatformOptions{
		ULLQueues: 2,
		Costs:     horse.XenCostModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Hypervisor().ULLQueues()); got != 2 {
		t.Fatalf("ull queues = %d, want 2", got)
	}
}

// TestFacadeExperimentWrappers exercises every experiment entry point at
// reduced scale.
func TestFacadeExperimentWrappers(t *testing.T) {
	if _, err := horse.RunFig2([]int{1}); err != nil {
		t.Fatal(err)
	}
	fig4, err := horse.RunFig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig4.Scenarios) != 4 {
		t.Fatalf("fig4 scenarios = %v", fig4.Scenarios)
	}
	overhead, err := horse.RunOverhead(horse.OverheadConfig{QueueBacklog: 64}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(overhead) != 1 || overhead[0].PSMMemoryBytes <= 0 {
		t.Fatalf("overhead = %+v", overhead)
	}
	cmp, err := horse.RunColocation(horse.ColocationConfig{ULLVCPUs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Vanilla.Latency.Count == 0 {
		t.Fatal("colocation produced no samples")
	}
	sweep, err := horse.RunColocationSweep(horse.ColocationConfig{Seed: 1}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 2 {
		t.Fatalf("sweep = %d points", len(sweep))
	}
	queues, err := horse.RunULLQueueSweep(horse.ULLQueueSweepConfig{Sandboxes: 2, VCPUs: 1, Cycles: 1}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(queues) != 1 {
		t.Fatalf("queue sweep = %d points", len(queues))
	}
	dispatch, err := horse.RunULLDispatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(dispatch) != 3 {
		t.Fatalf("dispatch = %d results", len(dispatch))
	}
}

// TestFacadeTraceRoundTrip covers the trace wrappers: a synthesized
// trace read back through ParseTrace expands to the same arrivals.
func TestFacadeTraceRoundTrip(t *testing.T) {
	tr := horse.SynthesizeTrace(horse.TraceConfig{Functions: 2, Minutes: 2, Seed: 8})
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	parsed, err := horse.ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := horse.TraceArrivals(tr, 1)
	if got := horse.TraceArrivals(parsed, 1); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed trace expands to %d arrivals, want the synthesized %d", len(got), len(want))
	}
}
