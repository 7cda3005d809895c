package experiments

import (
	"fmt"
	"sort"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/runqueue"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/vmm"
	"github.com/horse-faas/horse/internal/workload"
)

// DispatchResult describes how one workload category fared on the
// 1 µs-quantum ull_runqueue when resumed concurrently with the others.
type DispatchResult struct {
	// Workload names the function.
	Workload string
	// Demand is the workload's execution time.
	Demand simtime.Duration
	// Quanta is how many timeslices the workload needed.
	Quanta int
	// Completion is when the workload finished, measured from the start
	// of dispatch.
	Completion simtime.Duration
}

// RunULLDispatch demonstrates §4.1.3's timeslice claim: three uLL
// sandboxes (one per workload category) are HORSE-resumed onto the same
// ull_runqueue and their workloads dispatched under the 1 µs quantum.
// Category 2 and 3 workloads (≤ 1 µs) finish within their first quantum;
// the Category 1 firewall (17 µs) round-robins without ever delaying the
// short workloads by more than the queue's quantum spacing — "1 µs
// provides every workload with enough CPU time to terminate its
// execution as soon as possible". Rows are sorted by Workload.
func RunULLDispatch() ([]DispatchResult, error) {
	h, err := vmm.New(vmm.Options{})
	if err != nil {
		return nil, err
	}
	engine := core.NewEngine(h)

	demands := []struct {
		name   string
		demand simtime.Duration
	}{
		{name: "firewall", demand: workload.FirewallDuration},
		{name: "nat", demand: workload.NATDuration},
		{name: "scan", demand: workload.ScanDuration},
	}

	// One 1-vCPU uLL sandbox per workload, all paused onto the single
	// reserved queue, then resumed back-to-back.
	work := make(map[string]simtime.Duration, len(demands))
	names := make(map[string]string, len(demands)) // vCPU id -> workload
	ids := make([]string, 0, len(demands))
	for _, d := range demands {
		sb, err := h.CreateSandbox(vmm.Config{VCPUs: 1, MemoryMB: 128, ULL: true})
		if err != nil {
			return nil, err
		}
		if _, err := engine.Pause(sb, core.Horse); err != nil {
			return nil, err
		}
		vcpuID := sb.VCPUs()[0].ID
		work[vcpuID] = d.demand
		names[vcpuID] = d.name
		ids = append(ids, vcpuID)
		if _, err := engine.Resume(sb, core.Horse); err != nil {
			return nil, err
		}
	}

	q := h.ULLQueues()[0]
	start := h.Clock().Now()
	slices, err := runqueue.Dispatch(h.Clock(), q, work)
	if err != nil {
		return nil, err
	}
	stats := runqueue.Summarize(slices)

	out := make([]DispatchResult, 0, len(demands))
	for _, vcpuID := range ids {
		st := stats[vcpuID]
		if !st.Completed {
			return nil, fmt.Errorf("experiments: %s never completed", names[vcpuID])
		}
		out = append(out, DispatchResult{
			Workload:   names[vcpuID],
			Demand:     st.Ran,
			Quanta:     st.Slices,
			Completion: st.Finished.Sub(start),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Workload < out[j].Workload })
	return out, nil
}
