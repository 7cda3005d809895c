package core

import (
	"errors"
	"math"
	"testing"

	"github.com/horse-faas/horse/internal/runqueue"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/vmm"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	h, err := vmm.New(vmm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(h)
}

func ullSandbox(t *testing.T, e *Engine, vcpus int) *vmm.Sandbox {
	t.Helper()
	sb, err := e.Hypervisor().CreateSandbox(vmm.Config{VCPUs: vcpus, MemoryMB: 512, ULL: true})
	if err != nil {
		t.Fatal(err)
	}
	return sb
}

func pauseResume(t *testing.T, e *Engine, vcpus int, policy Policy) vmm.ResumeReport {
	t.Helper()
	sb := ullSandbox(t, e, vcpus)
	if _, err := e.Pause(sb, policy); err != nil {
		t.Fatalf("pause(%s): %v", policy, err)
	}
	rr, err := e.Resume(sb, policy)
	if err != nil {
		t.Fatalf("resume(%s): %v", policy, err)
	}
	return rr
}

func TestHorseResumeIsConstant150ns(t *testing.T) {
	// Figure 3's headline: the HORSE resume time does not vary with the
	// number of vCPUs and is ≈150 ns.
	want := 150 * simtime.Nanosecond
	for _, vcpus := range []int{1, 2, 4, 8, 16, 24, 36} {
		e := newEngine(t)
		rr := pauseResume(t, e, vcpus, Horse)
		if rr.Total != want {
			t.Fatalf("horse resume (%d vCPUs) = %v, want %v", vcpus, rr.Total, want)
		}
		if rr.Policy != string(Horse) {
			t.Fatalf("policy = %q", rr.Policy)
		}
	}
}

func TestFigure3Ordering(t *testing.T) {
	// At every vCPU count: vanil > coal > ppsm > horse.
	for _, vcpus := range []int{1, 4, 12, 36} {
		totals := make(map[Policy]simtime.Duration, 4)
		for _, p := range []Policy{Vanilla, Coal, PPSM, Horse} {
			e := newEngine(t)
			totals[p] = pauseResume(t, e, vcpus, p).Total
		}
		if !(totals[Vanilla] > totals[Coal] && totals[Coal] > totals[PPSM] && totals[PPSM] > totals[Horse]) {
			t.Fatalf("vcpus=%d ordering violated: %v", vcpus, totals)
		}
	}
}

func TestFigure3HeadlineFactors(t *testing.T) {
	var vanil36, horse36 simtime.Duration
	{
		e := newEngine(t)
		vanil36 = pauseResume(t, e, 36, Vanilla).Total
	}
	{
		e := newEngine(t)
		horse36 = pauseResume(t, e, 36, Horse).Total
	}
	ratio := float64(vanil36) / float64(horse36)
	// Paper: up to 7.16x / 85% improvement. The calibrated model yields
	// 7.68x; accept the 6.5-8.5 band.
	if ratio < 6.5 || ratio > 8.5 {
		t.Fatalf("vanil/horse at 36 vCPUs = %.2fx, want ≈7.2x", ratio)
	}
	improvement := 1 - float64(horse36)/float64(vanil36)
	if improvement < 0.80 || improvement > 0.90 {
		t.Fatalf("improvement = %.1f%%, want ≈85%%", improvement*100)
	}
}

func TestCoalAndPPSMSavingsBands(t *testing.T) {
	var vanil, coal, ppsm simtime.Duration
	{
		e := newEngine(t)
		vanil = pauseResume(t, e, 36, Vanilla).Total
	}
	{
		e := newEngine(t)
		coal = pauseResume(t, e, 36, Coal).Total
	}
	{
		e := newEngine(t)
		ppsm = pauseResume(t, e, 36, PPSM).Total
	}
	coalSave := 1 - float64(coal)/float64(vanil)
	ppsmSave := 1 - float64(ppsm)/float64(vanil)
	// Paper: coal improves up to 20%, ppsm 55-69%.
	if coalSave < 0.15 || coalSave > 0.25 {
		t.Fatalf("coal saving = %.1f%%, want ≈20%%", coalSave*100)
	}
	if ppsmSave < 0.50 || ppsmSave > 0.70 {
		t.Fatalf("ppsm saving = %.1f%%, want 55-69%%", ppsmSave*100)
	}
}

func TestHorseQueueStateAfterResume(t *testing.T) {
	e := newEngine(t)
	sb := ullSandbox(t, e, 5)
	if _, err := e.Pause(sb, Horse); err != nil {
		t.Fatal(err)
	}
	q := e.Hypervisor().ULLQueues()[0]
	if q.ObserverCount() != 1 {
		t.Fatalf("paused sandbox not observing ull queue: %d", q.ObserverCount())
	}
	if e.PreparedSandboxes() != 1 {
		t.Fatalf("prepared = %d, want 1", e.PreparedSandboxes())
	}
	rr, err := e.Resume(sb, Horse)
	if err != nil {
		t.Fatal(err)
	}
	if rr.VCPUs != 5 {
		t.Fatalf("report vcpus = %d", rr.VCPUs)
	}
	if q.Len() != 5 {
		t.Fatalf("ull queue has %d entities, want 5", q.Len())
	}
	if !q.List().IsSorted() {
		t.Fatal("ull queue unsorted after splice")
	}
	if q.ObserverCount() != 0 {
		t.Fatal("consumed precompute still observing")
	}
	if len(sb.Placements()) != 5 {
		t.Fatalf("placements = %d, want 5", len(sb.Placements()))
	}
	if sb.State() != vmm.StateRunning {
		t.Fatalf("state = %v", sb.State())
	}
	if e.PreparedSandboxes() != 0 {
		t.Fatal("state not cleared after resume")
	}
}

func TestHorsePauseResumeCycleRepeats(t *testing.T) {
	e := newEngine(t)
	sb := ullSandbox(t, e, 3)
	for i := 0; i < 10; i++ {
		if _, err := e.Pause(sb, Horse); err != nil {
			t.Fatalf("cycle %d pause: %v", i, err)
		}
		if _, err := e.Resume(sb, Horse); err != nil {
			t.Fatalf("cycle %d resume: %v", i, err)
		}
	}
	q := e.Hypervisor().ULLQueues()[0]
	if q.Len() != 3 {
		t.Fatalf("ull queue len = %d after cycles, want 3", q.Len())
	}
}

func TestCoalescedLoadMatchesVanillaIteration(t *testing.T) {
	// The load figure after a HORSE resume must equal what n per-vCPU
	// updates would have produced.
	eH := newEngine(t)
	sbH := ullSandbox(t, eH, 12)
	if _, err := eH.Pause(sbH, Horse); err != nil {
		t.Fatal(err)
	}
	if _, err := eH.Resume(sbH, Horse); err != nil {
		t.Fatal(err)
	}
	horseLoad := eH.Hypervisor().ULLQueues()[0].Load().Load()

	eP := newEngine(t)
	sbP := ullSandbox(t, eP, 12)
	if _, err := eP.Pause(sbP, PPSM); err != nil {
		t.Fatal(err)
	}
	if _, err := eP.Resume(sbP, PPSM); err != nil {
		t.Fatal(err)
	}
	iterLoad := eP.Hypervisor().ULLQueues()[0].Load().Load()

	if diff := math.Abs(horseLoad - iterLoad); diff > 1e-6*math.Max(1, iterLoad) {
		t.Fatalf("coalesced load %v != iterated load %v", horseLoad, iterLoad)
	}
}

func TestPauseNonULLRejected(t *testing.T) {
	e := newEngine(t)
	sb, err := e.Hypervisor().CreateSandbox(vmm.Config{VCPUs: 1, MemoryMB: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Pause(sb, Horse); !errors.Is(err, ErrNotULL) {
		t.Fatalf("err = %v, want ErrNotULL", err)
	}
}

func TestResumeWithoutPrepare(t *testing.T) {
	e := newEngine(t)
	sb := ullSandbox(t, e, 1)
	if _, err := e.Hypervisor().AppendPause(nil, sb); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Resume(sb, Horse); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("err = %v, want ErrNotPrepared", err)
	}
}

func TestPolicyMismatch(t *testing.T) {
	e := newEngine(t)
	sb := ullSandbox(t, e, 2)
	if _, err := e.Pause(sb, Horse); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Resume(sb, PPSM); !errors.Is(err, ErrPolicyMismatch) {
		t.Fatalf("err = %v, want ErrPolicyMismatch", err)
	}
	if _, err := e.Resume(sb, Vanilla); !errors.Is(err, ErrPolicyMismatch) {
		t.Fatalf("vanilla after horse pause err = %v, want ErrPolicyMismatch", err)
	}
	// The matching policy still works afterwards.
	if _, err := e.Resume(sb, Horse); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownPolicy(t *testing.T) {
	e := newEngine(t)
	sb := ullSandbox(t, e, 1)
	if _, err := e.Pause(sb, Policy("bogus")); !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("pause err = %v, want ErrUnknownPolicy", err)
	}
	if _, err := e.Resume(sb, Policy("bogus")); !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("resume err = %v, want ErrUnknownPolicy", err)
	}
}

func TestMultiplePausedSandboxesShareQueue(t *testing.T) {
	e := newEngine(t)
	a := ullSandbox(t, e, 3)
	b := ullSandbox(t, e, 4)
	if _, err := e.Pause(a, Horse); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Pause(b, Horse); err != nil {
		t.Fatal(err)
	}
	if e.MemoryFootprint() <= 0 {
		t.Fatal("no memory footprint for prepared structures")
	}
	// Resuming a must leave b's structures valid so b resumes exactly.
	if _, err := e.Resume(a, Horse); err != nil {
		t.Fatal(err)
	}
	if e.BackgroundSyncWork() <= 0 {
		t.Fatal("no background sync work accounted for sibling update")
	}
	if _, err := e.Resume(b, Horse); err != nil {
		t.Fatal(err)
	}
	q := e.Hypervisor().ULLQueues()[0]
	if q.Len() != 7 || !q.List().IsSorted() {
		t.Fatalf("queue len=%d sorted=%v after both resumes", q.Len(), q.List().IsSorted())
	}
}

func TestULLQueueLoadBalancing(t *testing.T) {
	h, err := vmm.New(vmm.Options{ULLQueues: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(h)
	for i := 0; i < 6; i++ {
		sb, err := h.CreateSandbox(vmm.Config{VCPUs: 1, MemoryMB: 128, ULL: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Pause(sb, Horse); err != nil {
			t.Fatal(err)
		}
	}
	// Paused sandboxes spread across the three ull queues by observer count.
	for i, q := range h.ULLQueues() {
		if q.ObserverCount() != 2 {
			t.Fatalf("queue %d observers = %d, want balanced 2", i, q.ObserverCount())
		}
	}
}

func TestForgetReleasesState(t *testing.T) {
	e := newEngine(t)
	sb := ullSandbox(t, e, 2)
	if _, err := e.Pause(sb, Horse); err != nil {
		t.Fatal(err)
	}
	e.Forget(sb)
	if e.PreparedSandboxes() != 0 {
		t.Fatal("Forget left state behind")
	}
	if e.Hypervisor().ULLQueues()[0].ObserverCount() != 0 {
		t.Fatal("Forget left observer registered")
	}
	e.Forget(sb) // idempotent
	if _, err := e.Resume(sb, Horse); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("resume after Forget err = %v, want ErrNotPrepared", err)
	}
}

func TestCoalResumePlacesOnULLQueue(t *testing.T) {
	e := newEngine(t)
	rr := pauseResume(t, e, 6, Coal)
	q := e.Hypervisor().ULLQueues()[0]
	if q.Len() != 6 {
		t.Fatalf("ull queue len = %d, want 6", q.Len())
	}
	// Exactly one coalesced load update ran, and no per-vCPU one.
	if got, ok := lookupStep(rr, vmm.StepCoalesce); !ok || got != e.Hypervisor().Costs().CoalescedUpdate {
		t.Fatalf("coalesce step = %v (recorded %v), want one CoalescedUpdate", got, ok)
	}
	if _, ok := lookupStep(rr, vmm.StepLoad); ok {
		t.Fatal("coal resume charged per-vCPU load updates")
	}
}

func TestPPSMResumeLoadUpdatesPerVCPU(t *testing.T) {
	e := newEngine(t)
	rr := pauseResume(t, e, 6, PPSM)
	if got, _ := lookupStep(rr, vmm.StepLoad); got != 6*e.Hypervisor().Costs().LoadUpdate {
		t.Fatalf("load step = %v, want 6 per-vCPU updates (%v each)", got, e.Hypervisor().Costs().LoadUpdate)
	}
}

func lookupStep(rr vmm.ResumeReport, label string) (simtime.Duration, bool) {
	for _, s := range rr.Steps {
		if s.Label == label {
			return s.Cost, true
		}
	}
	return 0, false
}

// rejectingObserver refuses every insert, forcing a resume to fail after
// its frame opened — the mid-flight failure class Resume reports as
// ErrPoisoned.
type rejectingObserver struct{ err error }

func (o rejectingObserver) TargetInserted(*runqueue.Element, int) error { return o.err }
func (o rejectingObserver) TargetRemoved(int) error                     { return nil }

func TestResumePoisonedAfterMidFlightFailure(t *testing.T) {
	e := newEngine(t)
	sb := ullSandbox(t, e, 2)
	if _, err := e.Pause(sb, Coal); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	e.states[sb].queue.Observe(rejectingObserver{err: boom})
	_, err := e.Resume(sb, Coal)
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("err = %v, want ErrPoisoned", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the mid-flight cause wrapped", err)
	}
	// The prepared state was dropped with the poisoning: a retry must
	// report not-prepared instead of trusting the suspect structures.
	if _, err := e.Resume(sb, Coal); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("retry err = %v, want ErrNotPrepared", err)
	}
}
