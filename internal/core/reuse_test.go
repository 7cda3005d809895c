package core

import (
	"testing"

	"github.com/horse-faas/horse/internal/runqueue"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/vmm"
)

// TestPauseReusesPrecomputeAndElements pins the pause-side reuse: the
// precompute a horse resume's merge consumed is the one the next pause
// re-arms, its source list is rebuilt from the very run-queue elements
// the pause just removed, and the queue never holds a consumed
// precompute as an observer.
func TestPauseReusesPrecomputeAndElements(t *testing.T) {
	e := newEngine(t)
	a := ullSandbox(t, e, 3)
	b := ullSandbox(t, e, 2)
	observers := func() int {
		n := 0
		for _, q := range e.Hypervisor().ULLQueues() {
			n += q.ObserverCount()
		}
		return n
	}
	check := func(step string) {
		t.Helper()
		if got, want := observers(), e.PreparedSandboxes(); got != want {
			t.Fatalf("%s: %d ull_runqueue observers, want one per prepared sandbox (%d)", step, got, want)
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	placed := func(sb *vmm.Sandbox) map[*runqueue.Element]bool {
		out := map[*runqueue.Element]bool{}
		for _, pl := range sb.Placements() {
			out[pl.Element] = true
		}
		return out
	}

	if _, err := e.Pause(b, Horse); err != nil {
		t.Fatal(err)
	}
	check("pause b")
	for cycle := 0; cycle < 4; cycle++ {
		before := placed(a)
		if _, err := e.Pause(a, Horse); err != nil {
			t.Fatal(err)
		}
		check("pause a")
		st := e.states[a]
		for el := st.pre.Source().Front(); el != nil; el = el.Next() {
			if !before[el] {
				t.Fatalf("cycle %d: source element %p is not one a's pause removed", cycle, el)
			}
		}
		if st.pre.Source().Len() != a.NumVCPUs() {
			t.Fatalf("cycle %d: source holds %d vCPUs, want %d", cycle, st.pre.Source().Len(), a.NumVCPUs())
		}
		pre := st.pre
		if _, err := e.Resume(a, Horse); err != nil {
			t.Fatal(err)
		}
		check("resume a")
		if e.prePool != pre {
			t.Fatalf("cycle %d: the consumed precompute was not pooled", cycle)
		}
		if _, err := e.Pause(a, Horse); err != nil {
			t.Fatal(err)
		}
		if e.states[a].pre != pre {
			t.Fatalf("cycle %d: the next pause built a new precompute", cycle)
		}
		check("re-pause a")
		if _, err := e.Resume(a, Horse); err != nil {
			t.Fatal(err)
		}
		// Resuming b onto the queue a's pooled precompute last targeted
		// must not reach it: MergePSM unregistered it.
		if _, err := e.Resume(b, Horse); err != nil {
			t.Fatal(err)
		}
		check("resume b")
		if _, err := e.Pause(b, Horse); err != nil {
			t.Fatal(err)
		}
		check("pause b")
	}
}

// TestHorseCycleAllocFree pins the saving end to end: a warmed horse
// pause-resume cycle whose reports append into one reused buffer
// allocates nothing — no step report, no precompute, no element.
func TestHorseCycleAllocFree(t *testing.T) {
	e := newEngine(t)
	sb := ullSandbox(t, e, 2)
	var steps []simtime.StopwatchResult
	cycle := func() {
		p, err := e.AppendPause(steps[:0], sb, Horse)
		if err != nil {
			t.Fatal(err)
		}
		steps = p.Steps
		r, err := e.AppendResume(steps[:0], sb, Horse)
		if err != nil {
			t.Fatal(err)
		}
		steps = r.Steps
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("horse pause+resume cycle allocates %v, want 0", n)
	}

	// Pause and Resume still hand their caller reports it owns.
	p, err := e.Pause(sb, Horse)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Resume(sb, Horse)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) == 0 || len(r.Steps) == 0 || &p.Steps[0] == &r.Steps[0] {
		t.Fatalf("pause and resume reports share or lack steps: %v, %v", p.Steps, r.Steps)
	}
}
