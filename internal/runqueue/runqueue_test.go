package runqueue

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/horse-faas/horse/internal/psm"
)

func vcpu(id string, credit int64) *Entity {
	return &Entity{ID: id, Kind: KindVCPU, Credit: credit, Sandbox: "sb"}
}

func queueIDs(q *Queue) []string {
	var out []string
	for e := q.List().Front(); e != nil; e = e.Next() {
		out = append(out, e.Value().ID)
	}
	return out
}

func TestNewDefaults(t *testing.T) {
	q := New(false)
	if q.Timeslice() != DefaultTimeslice {
		t.Fatalf("Timeslice = %v, want default", q.Timeslice())
	}
}

func TestReservedOption(t *testing.T) {
	q := New(true)
	if q.Timeslice() != ULLTimeslice {
		t.Fatalf("ull timeslice = %v, want 1µs", q.Timeslice())
	}
}

func TestInsertSortsByCredit(t *testing.T) {
	q := New(false)
	for i, c := range []int64{50, 10, 30} {
		if _, _, err := q.Insert(vcpu(fmt.Sprintf("v%d", i), c)); err != nil {
			t.Fatal(err)
		}
	}
	got := queueIDs(q)
	want := []string{"v1", "v2", "v0"} // credits 10, 30, 50
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if q.Len() != 3 {
		t.Fatalf("Len=%d, want 3", q.Len())
	}
}

func TestInsertNil(t *testing.T) {
	q := New(false)
	if _, _, err := q.Insert(nil); err == nil {
		t.Fatal("nil entity accepted")
	}
}

func TestRemoveAndPop(t *testing.T) {
	q := New(false)
	e1, _, _ := q.Insert(vcpu("a", 1))
	q.Insert(vcpu("b", 2))
	if err := q.Remove(e1); err != nil {
		t.Fatal(err)
	}
	if err := q.Remove(e1); !errors.Is(err, ErrNotOnQueue) {
		t.Fatalf("double remove err = %v, want ErrNotOnQueue", err)
	}
	if got := q.PopFront(); got == nil || got.ID != "b" {
		t.Fatalf("PopFront = %v, want b", got)
	}
	if q.PopFront() != nil || q.Len() != 0 {
		t.Fatal("empty queue returned entity")
	}
}

func TestPrecomputedStaysCurrentThroughQueueChanges(t *testing.T) {
	q := New(true)
	q.Insert(vcpu("q1", 10))
	q.Insert(vcpu("q2", 30))

	p := q.NewPrecomputed()
	if q.ObserverCount() != 1 {
		t.Fatalf("observers = %d, want 1", q.ObserverCount())
	}
	p.AddSource(15, vcpu("s1", 15))
	p.AddSource(25, vcpu("s2", 25))

	// The ull_runqueue keeps changing while the sandbox is paused.
	e, _, err := q.Insert(vcpu("q3", 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("precompute stale after insert: %v", err)
	}
	if err := q.Remove(e); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("precompute stale after remove: %v", err)
	}

	res, err := q.MergePSM(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 2 {
		t.Fatalf("Merged = %d, want 2", res.Merged)
	}
	got := queueIDs(q)
	want := []string{"q1", "s1", "s2", "q2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if q.ObserverCount() != 0 {
		t.Fatal("merged precompute still observing")
	}
}

func TestMergePSMResyncsOtherObservers(t *testing.T) {
	q := New(true)
	q.Insert(vcpu("q1", 10))
	q.Insert(vcpu("q2", 40))

	// Two paused sandboxes share the ull_runqueue.
	pa := q.NewPrecomputed()
	pb := q.NewPrecomputed()
	pa.AddSource(20, vcpu("a1", 20))
	pa.AddSource(30, vcpu("a2", 30))
	pb.AddSource(25, vcpu("b1", 25))

	if _, err := q.MergePSM(pa); err != nil {
		t.Fatal(err)
	}
	// pb must have been resynced for each element pa spliced in.
	if err := pb.Validate(); err != nil {
		t.Fatalf("sibling precompute stale after MergePSM: %v", err)
	}
	if _, err := q.MergePSM(pb); err != nil {
		t.Fatal(err)
	}
	got := queueIDs(q)
	want := []string{"q1", "a1", "b1", "a2", "q2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if !q.List().IsSorted() {
		t.Fatal("queue unsorted after double merge")
	}
}

func TestMergePSMWrongTarget(t *testing.T) {
	q1 := New(false)
	q2 := New(false)
	p := q1.NewPrecomputed()
	if _, err := q2.MergePSM(p); !errors.Is(err, ErrWrongTarget) {
		t.Fatalf("err = %v, want ErrWrongTarget", err)
	}
}

// A failed MergePSM on consumed state must leave the observer list as it
// found it: a merged precompute stays unregistered (registering it again
// would feed a dead observer every later queue insert), and one consumed
// by the sequential baseline while still registered keeps its single
// registration.
func TestMergePSMConsumedStateRestoresObserver(t *testing.T) {
	q := New(false)
	p := q.NewPrecomputed()
	p.AddSource(1, vcpu("s", 1))
	if _, err := q.MergePSM(p); err != nil {
		t.Fatal(err)
	}
	if _, err := q.MergePSM(p); !errors.Is(err, psm.ErrNotReady) {
		t.Fatalf("second merge err = %v, want ErrNotReady", err)
	}
	if q.ObserverCount() != 0 {
		t.Fatalf("observers = %d, want 0 (unchanged by the failed merge)", q.ObserverCount())
	}

	registered := q.NewPrecomputed()
	registered.AddSource(2, vcpu("r", 2))
	if _, err := registered.MergeSequentialBaseline(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.MergePSM(registered); !errors.Is(err, psm.ErrNotReady) {
		t.Fatalf("merge of consumed registered state err = %v, want ErrNotReady", err)
	}
	if q.ObserverCount() != 1 {
		t.Fatalf("observers = %d, want 1 (unchanged by the failed merge)", q.ObserverCount())
	}
}

func TestUnobserve(t *testing.T) {
	q := New(false)
	p := q.NewPrecomputed()
	q.Unobserve(p)
	if q.ObserverCount() != 0 {
		t.Fatal("Unobserve did not remove observer")
	}
	q.Unobserve(p) // no-op, must not panic
}

func TestEntityKindString(t *testing.T) {
	tests := []struct {
		give EntityKind
		want string
	}{
		{give: KindVCPU, want: "vcpu"},
		{give: KindMergeThread, want: "merge-thread"},
		{give: KindTask, want: "task"},
		{give: EntityKind(42), want: "kind(42)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.give), got, tt.want)
		}
	}
}

// Property: under random interleavings of queue inserts/removes and
// paused-sandbox source changes across TWO precomputeds sharing the
// queue, both stay valid, and merging both yields a sorted queue with
// exact length accounting.
func TestSharedQueueMaintenanceProperty(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := New(true)
		pa := q.NewPrecomputed()
		pb := q.NewPrecomputed()
		var onQueue []*Element
		for i, op := range ops {
			credit := int64(rng.Intn(50))
			switch op % 5 {
			case 0:
				e, _, err := q.Insert(vcpu(fmt.Sprintf("q%d", i), credit))
				if err != nil {
					return false
				}
				onQueue = append(onQueue, e)
			case 1:
				if len(onQueue) > 0 {
					j := rng.Intn(len(onQueue))
					if q.Remove(onQueue[j]) != nil {
						return false
					}
					onQueue = append(onQueue[:j], onQueue[j+1:]...)
				}
			case 2:
				pa.AddSource(credit, vcpu(fmt.Sprintf("a%d", i), credit))
			case 3:
				pb.AddSource(credit, vcpu(fmt.Sprintf("b%d", i), credit))
			case 4:
				if q.Len() > 0 {
					q.PopFront()
					onQueue = onQueue[:0]
					for e := q.List().Front(); e != nil; e = e.Next() {
						onQueue = append(onQueue, e)
					}
				}
			}
			if pa.Validate() != nil || pb.Validate() != nil {
				return false
			}
		}
		wantLen := q.Len() + pa.Source().Len() + pb.Source().Len()
		if _, err := q.MergePSM(pa); err != nil {
			return false
		}
		if pb.Validate() != nil {
			return false
		}
		if _, err := q.MergePSM(pb); err != nil {
			return false
		}
		return q.List().IsSorted() && q.Len() == wantLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRearm pins the one way a precompute comes back as an observer: a
// MergePSM-consumed precompute is reset and registered on the new
// queue, and stays current through its changes; a still-armed one is
// refused, so no precompute is ever registered twice.
func TestRearm(t *testing.T) {
	q := New(true)
	p := q.NewPrecomputed()
	if err := q.Rearm(p); !errors.Is(err, ErrStillArmed) {
		t.Fatalf("Rearm of an armed precompute = %v, want ErrStillArmed", err)
	}
	if q.ObserverCount() != 1 {
		t.Fatalf("observers = %d after a refused Rearm, want 1", q.ObserverCount())
	}
	p.AddSource(5, vcpu("a", 5))
	if _, err := q.MergePSM(p); err != nil {
		t.Fatal(err)
	}

	other := New(true)
	if _, _, err := other.Insert(vcpu("x", 10)); err != nil {
		t.Fatal(err)
	}
	if err := other.Rearm(p); err != nil {
		t.Fatal(err)
	}
	if q.ObserverCount() != 0 || other.ObserverCount() != 1 {
		t.Fatalf("observers after Rearm: old queue %d, new queue %d; want 0 and 1", q.ObserverCount(), other.ObserverCount())
	}
	if p.Target() != other.List() || p.Source().Len() != 0 {
		t.Fatalf("rearmed precompute targets the old queue (%v) or kept a source (%d)", p.Target() != other.List(), p.Source().Len())
	}
	p.AddSource(7, vcpu("b", 7))
	if _, _, err := other.Insert(vcpu("y", 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("rearmed precompute fell behind its queue: %v", err)
	}
	if _, err := other.MergePSM(p); err != nil {
		t.Fatal(err)
	}
	if got := queueIDs(other); len(got) != 3 || got[0] != "y" || got[1] != "b" || got[2] != "x" {
		t.Fatalf("queue after merge = %v, want [y b x]", got)
	}
}
