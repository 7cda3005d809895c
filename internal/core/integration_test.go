package core

import (
	"math"
	"sort"
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/vmm"
)

// TestEvolvingCreditsKeepMergeExact advances virtual time between
// pause/resume cycles so the vCPUs' credits (the sort keys) change every
// round; the continuously maintained merge_vcpus/posA must still splice
// exactly.
func TestEvolvingCreditsKeepMergeExact(t *testing.T) {
	e := newEngine(t)
	h := e.Hypervisor()
	a := ullSandbox(t, e, 5)
	b := ullSandbox(t, e, 7)
	q := h.ULLQueues()[0]

	for cycle := 0; cycle < 8; cycle++ {
		h.Clock().Advance(simtime.Duration(1+cycle) * simtime.Millisecond)
		if _, err := e.Pause(a, Horse); err != nil {
			t.Fatalf("cycle %d pause a: %v", cycle, err)
		}
		h.Clock().Advance(700 * simtime.Microsecond)
		if _, err := e.Pause(b, Horse); err != nil {
			t.Fatalf("cycle %d pause b: %v", cycle, err)
		}
		if _, err := e.Resume(a, Horse); err != nil {
			t.Fatalf("cycle %d resume a: %v", cycle, err)
		}
		if _, err := e.Resume(b, Horse); err != nil {
			t.Fatalf("cycle %d resume b: %v", cycle, err)
		}
		if !q.List().IsSorted() {
			t.Fatalf("cycle %d: ull queue unsorted", cycle)
		}
		if q.Len() != 12 {
			t.Fatalf("cycle %d: queue len = %d, want 12", cycle, q.Len())
		}
	}
	// Credits actually evolved (epoch resets may clip back to the
	// initial allocation, so compare within the final cycle instead of
	// against the initial value: the two sandboxes ran for different
	// spans, so their vCPUs cannot share one credit value).
	ca := a.VCPUs()[0].Credit
	cb := b.VCPUs()[0].Credit
	if ca == cb {
		t.Fatalf("credits did not evolve: a=%d b=%d", ca, cb)
	}
}

// TestGovernorSeesSameLoadUnderCoalescing checks that coalescing is
// transparent to the frequency governor the ull_runqueue's load variable
// feeds: a frequency step over the operating points of the paper's Xeon
// Platinum 8360Y (f_max times the utilisation of the sandbox's vCPUs,
// rounded up to the next point) picks the same frequency after a HORSE
// resume (one coalesced update) as after a PPSM resume (n iterated
// updates).
func TestGovernorSeesSameLoadUnderCoalescing(t *testing.T) {
	const vcpus = 24
	points := []float64{800e3, 1200e3, 1600e3, 2000e3, 2400e3, 2800e3, 3200e3, 3500e3} // kHz
	fmax := points[len(points)-1]
	freqFor := func(policy Policy) float64 {
		e := newEngine(t)
		sb := ullSandbox(t, e, vcpus)
		if _, err := e.Pause(sb, policy); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Resume(sb, policy); err != nil {
			t.Fatal(err)
		}
		util := e.Hypervisor().ULLQueues()[0].Load().Load() / (vcpus * 1024)
		return points[min(sort.SearchFloat64s(points, fmax*util), len(points)-1)]
	}
	horse, ppsm := freqFor(Horse), freqFor(PPSM)
	if horse != ppsm {
		t.Fatalf("coalesced load drove %.0f kHz, iterated drove %.0f kHz", horse, ppsm)
	}
	if horse == fmax {
		t.Fatalf("both loads saturate the step at %.0f kHz, so it compares nothing", fmax)
	}
}

// TestXenFlavorFigure3Shape re-runs the Figure 3 headline on the Xen
// cost model: the paper reports "similar observations" for Xen.
func TestXenFlavorFigure3Shape(t *testing.T) {
	resume := func(policy Policy) simtime.Duration {
		h, err := vmm.New(vmm.Options{Costs: vmm.XenCostModel()})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(h)
		sb, err := h.CreateSandbox(vmm.Config{VCPUs: 36, MemoryMB: 512, ULL: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Pause(sb, policy); err != nil {
			t.Fatal(err)
		}
		rr, err := e.Resume(sb, policy)
		if err != nil {
			t.Fatal(err)
		}
		return rr.Total
	}
	vanil := resume(Vanilla)
	horse := resume(Horse)
	if horse != 150*simtime.Nanosecond {
		t.Fatalf("Xen horse resume = %v, want the same constant 150ns", horse)
	}
	ratio := float64(vanil) / float64(horse)
	if ratio < 6.5 || ratio > 9 {
		t.Fatalf("Xen vanil/horse = %.2f, want ≈7-8x", ratio)
	}
}

// TestCoalescedLoadNumericalStability runs many consecutive cycles and
// checks the coalesced path never drifts from the iterated one.
func TestCoalescedLoadNumericalStability(t *testing.T) {
	eH := newEngine(t)
	eP := newEngine(t)
	sbH := ullSandbox(t, eH, 16)
	sbP := ullSandbox(t, eP, 16)
	for i := 0; i < 50; i++ {
		if _, err := eH.Pause(sbH, Horse); err != nil {
			t.Fatal(err)
		}
		if _, err := eH.Resume(sbH, Horse); err != nil {
			t.Fatal(err)
		}
		if _, err := eP.Pause(sbP, PPSM); err != nil {
			t.Fatal(err)
		}
		if _, err := eP.Resume(sbP, PPSM); err != nil {
			t.Fatal(err)
		}
	}
	lh := eH.Hypervisor().ULLQueues()[0].Load().Load()
	lp := eP.Hypervisor().ULLQueues()[0].Load().Load()
	if diff := math.Abs(lh - lp); diff > 1e-6*math.Max(1, lp) {
		t.Fatalf("after 50 cycles coalesced load %v drifted from iterated %v", lh, lp)
	}
}
