package experiments

import (
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/workload"
)

func TestULLQueueSweepReducesSyncWork(t *testing.T) {
	points, err := RunULLQueueSweep(ULLQueueSweepConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	for i, pt := range points {
		// The fast path stays constant regardless of queue count.
		if pt.ResumeTotal != 150*simtime.Nanosecond {
			t.Fatalf("queues=%d resume = %v, want 150ns", pt.Queues, pt.ResumeTotal)
		}
		// Load balancing: at most ceil(16/queues) sandboxes per queue.
		wantMax := (16 + pt.Queues - 1) / pt.Queues
		if pt.MaxAssigned > wantMax {
			t.Fatalf("queues=%d max assigned = %d, want <= %d", pt.Queues, pt.MaxAssigned, wantMax)
		}
		// More queues, fewer sibling structures to resynchronize.
		if i > 0 && pt.SyncWork >= points[i-1].SyncWork {
			t.Fatalf("sync work did not shrink: %v (queues=%d) vs %v (queues=%d)",
				pt.SyncWork, pt.Queues, points[i-1].SyncWork, points[i-1].Queues)
		}
	}
	if points[0].SyncWork == 0 {
		t.Fatal("single-queue run accounted no sync work")
	}
}

func TestULLQueueSweepCustomCounts(t *testing.T) {
	points, err := RunULLQueueSweep(ULLQueueSweepConfig{Sandboxes: 4, VCPUs: 2, Cycles: 1}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].Queues != 2 {
		t.Fatalf("points = %+v", points)
	}
	if points[0].MaxAssigned != 2 {
		t.Fatalf("max assigned = %d, want balanced 2", points[0].MaxAssigned)
	}
}

func TestULLDispatchTimesliceClaim(t *testing.T) {
	results, err := RunULLDispatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3 categories", len(results))
	}
	byName := make(map[string]DispatchResult, len(results))
	for _, r := range results {
		byName[r.Workload] = r
	}
	// The Category-3 scan (700ns) finishes within its first quantum; the
	// NAT (1.5µs measured exec) needs two.
	if got := byName["scan"].Quanta; got != 1 {
		t.Fatalf("scan used %d quanta, want 1", got)
	}
	if got := byName["nat"].Quanta; got != 2 {
		t.Fatalf("nat used %d quanta, want 2", got)
	}
	// The 17µs firewall round-robins: 17 quanta of 1µs.
	if byName["firewall"].Quanta != 17 {
		t.Fatalf("firewall quanta = %d, want 17", byName["firewall"].Quanta)
	}
	// Short workloads complete well before the firewall despite sharing
	// the queue: the 1µs quantum bounds their wait.
	if byName["scan"].Completion >= byName["firewall"].Completion {
		t.Fatal("scan did not finish before the firewall")
	}
	if byName["nat"].Completion > 5*simtime.Microsecond {
		t.Fatalf("nat completion = %v, want within a few quanta", byName["nat"].Completion)
	}
	// Total makespan is conserved: 17 + 1.5 + 0.7 µs.
	var latest simtime.Duration
	for _, r := range results {
		if r.Completion > latest {
			latest = r.Completion
		}
	}
	want := workload.FirewallDuration + workload.NATDuration + workload.ScanDuration
	if latest != want {
		t.Fatalf("makespan = %v, want %v", latest, want)
	}
}

// TestULLDispatchRowOrder pins the row order: sorted by Workload on
// every call, independent of the map the per-vCPU stats come from.
func TestULLDispatchRowOrder(t *testing.T) {
	want := []string{"firewall", "nat", "scan"}
	for i := 0; i < 20; i++ {
		results, err := RunULLDispatch()
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(want) {
			t.Fatalf("results = %d rows, want %d", len(results), len(want))
		}
		for j, r := range results {
			if r.Workload != want[j] {
				t.Fatalf("call %d: row %d is %q, want %q", i, j, r.Workload, want[j])
			}
		}
	}
}
