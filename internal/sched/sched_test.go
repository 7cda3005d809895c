package sched

import (
	"testing"

	"github.com/horse-faas/horse/internal/eventsim"
	"github.com/horse-faas/horse/internal/simtime"
)

func newSched(t *testing.T, cpus int) (*Scheduler, *eventsim.Engine) {
	t.Helper()
	eng := eventsim.New(nil)
	s, err := New(eng, Options{CPUs: cpus})
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
}

func TestNewValidation(t *testing.T) {
	eng := eventsim.New(nil)
	if _, err := New(eng, Options{CPUs: -1}); err == nil {
		t.Fatal("negative CPUs accepted")
	}
	s, err := New(eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.CPUs() != 36 {
		t.Fatalf("default CPUs = %d, want 36", s.CPUs())
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	s, eng := newSched(t, 2)
	var gotStart, gotEnd simtime.Time
	err := s.Submit(&Task{
		ID:       "t1",
		Duration: 100,
		OnDone: func(submitted, end simtime.Time) {
			gotStart, gotEnd = submitted, end
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if gotStart != 0 || gotEnd != 100 {
		t.Fatalf("task ran [%v,%v], want [0,100]", gotStart, gotEnd)
	}
	st := s.Stats()
	if st.Completed != 1 || st.BusyTime != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubmitInvalid(t *testing.T) {
	s, _ := newSched(t, 1)
	if err := s.Submit(nil); err == nil {
		t.Fatal("nil task accepted")
	}
	if err := s.Submit(&Task{Duration: -1}); err == nil {
		t.Fatal("negative duration accepted")
	}
	if err := s.SubmitPreemptingPinned(nil); err == nil {
		t.Fatal("nil preempting task accepted")
	}
}

func TestFIFOQueueWhenSaturated(t *testing.T) {
	s, eng := newSched(t, 1)
	var order []string
	record := func(id string) func(simtime.Time, simtime.Time) {
		return func(_, _ simtime.Time) { order = append(order, id) }
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := s.Submit(&Task{ID: id, Duration: 10, OnDone: record(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2", s.QueueLen())
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v, want FIFO", order)
	}
	if eng.Now() != 30 {
		t.Fatalf("finished at %v, want 30", eng.Now())
	}
	if s.Stats().Enqueued != 2 {
		t.Fatalf("Enqueued = %d, want 2", s.Stats().Enqueued)
	}
}

func TestPreemptionDelaysVictim(t *testing.T) {
	s, eng := newSched(t, 1)
	var victimEnd, mergeEnd simtime.Time
	if err := s.Submit(&Task{
		ID:       "victim",
		Duration: 1000,
		OnDone:   func(_, end simtime.Time) { victimEnd = end },
	}); err != nil {
		t.Fatal(err)
	}
	// A merge thread arrives at t=200.
	if _, err := eng.Schedule(200, func(simtime.Time) {
		if err := s.SubmitPreemptingPinned(&Task{
			ID:       "merge",
			Priority: PriorityMerge,
			Duration: 110,
			OnDone:   func(_, end simtime.Time) { mergeEnd = end },
		}); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if mergeEnd != 310 {
		t.Fatalf("merge finished at %v, want 310", mergeEnd)
	}
	// Victim: 1000 of work + 110 preemption + 700 context switch.
	if victimEnd != 1810 {
		t.Fatalf("victim finished at %v, want 1810", victimEnd)
	}
	st := s.Stats()
	if st.Preemptions != 1 {
		t.Fatalf("Preemptions = %d, want 1", st.Preemptions)
	}
	if st.PreemptDelay != 810 {
		t.Fatalf("PreemptDelay = %v, want 810 (110+700)", st.PreemptDelay)
	}
}

func TestPreemptingQueuesAmongEqualPriority(t *testing.T) {
	s, eng := newSched(t, 1)
	if err := s.SubmitPreemptingPinned(&Task{ID: "m1", Priority: PriorityMerge, Duration: 100}); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitPreemptingPinned(&Task{ID: "m2", Priority: PriorityMerge, Duration: 100}); err != nil {
		t.Fatal(err)
	}
	if s.QueueLen() != 1 {
		t.Fatalf("QueueLen = %d, want m2 queued", s.QueueLen())
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Preemptions != 0 {
		t.Fatal("equal priority preempted")
	}
	if s.Stats().Completed != 2 {
		t.Fatalf("Completed = %d", s.Stats().Completed)
	}
}

func TestVictimSelectionRotatesAcrossCores(t *testing.T) {
	s, eng := newSched(t, 2)
	ends := make(map[string]simtime.Time)
	rec := func(id string) func(simtime.Time, simtime.Time) {
		return func(_, end simtime.Time) { ends[id] = end }
	}
	if err := s.Submit(&Task{ID: "a", Duration: 5000, OnDone: rec("a")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(&Task{ID: "b", Duration: 5000, OnDone: rec("b")}); err != nil {
		t.Fatal(err)
	}
	// Two merge bursts; rotation must hit different victims.
	for _, at := range []simtime.Time{100, 300} {
		if _, err := eng.Schedule(at, func(simtime.Time) {
			if err := s.SubmitPreemptingPinned(&Task{ID: "merge", Priority: PriorityMerge, Duration: 10}); err != nil {
				t.Fatal(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// Each task preempted exactly once: 5000 + 10 + 700.
	if ends["a"] != 5710 || ends["b"] != 5710 {
		t.Fatalf("ends = %v, want both 5710 (one preemption each)", ends)
	}
	if s.Stats().Preemptions != 2 {
		t.Fatalf("Preemptions = %d, want 2", s.Stats().Preemptions)
	}
}

func TestExtraPenaltyChargedToVictim(t *testing.T) {
	s, eng := newSched(t, 1)
	var victimEnd simtime.Time
	if err := s.Submit(&Task{ID: "v", Duration: 1000,
		OnDone: func(_, end simtime.Time) { victimEnd = end }}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Schedule(500, func(simtime.Time) {
		if err := s.SubmitPreemptingPinned(&Task{
			ID: "burst", Priority: PriorityMerge, Duration: 100, ExtraPenalty: 2000,
		}); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// 1000 work + 100 burst + 700 ctx + 2000 extra.
	if victimEnd != 3800 {
		t.Fatalf("victim ended %v, want 3800", victimEnd)
	}
	if got := s.Stats().PreemptDelay; got != 2800 {
		t.Fatalf("PreemptDelay = %v, want 2800", got)
	}
}

func TestNestedPreemptionResumesLIFO(t *testing.T) {
	// One CPU: a long task preempted twice; the second merge preempts...
	// equal priority means it queues, so instead: preempt, let the merge
	// finish, victim resumes, then preempt again.
	s, eng := newSched(t, 1)
	var victimEnd simtime.Time
	if err := s.Submit(&Task{ID: "victim", Duration: 10_000,
		OnDone: func(_, end simtime.Time) { victimEnd = end }}); err != nil {
		t.Fatal(err)
	}
	for _, at := range []simtime.Time{1000, 5000} {
		if _, err := eng.Schedule(at, func(simtime.Time) {
			if err := s.SubmitPreemptingPinned(&Task{ID: "m", Priority: PriorityMerge, Duration: 100}); err != nil {
				t.Fatal(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// 10000 work + 2×(100 merge + 700 ctx) = 11600.
	if victimEnd != 11600 {
		t.Fatalf("victim ended %v, want 11600", victimEnd)
	}
	if s.Stats().Preemptions != 2 {
		t.Fatalf("Preemptions = %d, want 2", s.Stats().Preemptions)
	}
}

func TestBusyTimeAccountsAcrossPreemption(t *testing.T) {
	s, eng := newSched(t, 1)
	if err := s.Submit(&Task{ID: "v", Duration: 1000}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Schedule(500, func(simtime.Time) {
		if err := s.SubmitPreemptingPinned(&Task{ID: "m", Priority: PriorityMerge, Duration: 100}); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// victim 1000 + ctx 700 + merge 100 = 1800 busy in total.
	if got := s.Stats().BusyTime; got != 1800 {
		t.Fatalf("BusyTime = %v, want 1800", got)
	}
}

func TestZeroDurationTask(t *testing.T) {
	s, eng := newSched(t, 1)
	done := false
	if err := s.Submit(&Task{ID: "instant", Duration: 0,
		OnDone: func(_, _ simtime.Time) { done = true }}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("zero-duration task never completed")
	}
}
