package eventsim

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/horse-faas/horse/internal/simtime"
)

func TestScheduleAndRunInOrder(t *testing.T) {
	e := New(nil)
	var got []simtime.Time
	for _, at := range []simtime.Time{30, 10, 20} {
		if _, err := e.Schedule(at, func(now simtime.Time) {
			got = append(got, now)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []simtime.Time{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired at %v, want %v (i=%d)", got, want, i)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestSameInstantFiresInScheduleOrder(t *testing.T) {
	e := New(nil)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		if _, err := e.Schedule(7, func(simtime.Time) { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order = %v, want ascending", got)
		}
	}
}

func TestSchedulePastReturnsError(t *testing.T) {
	e := New(nil)
	e.Clock().Advance(100)
	if _, err := e.Schedule(50, func(simtime.Time) {}); !errors.Is(err, ErrPastEvent) {
		t.Fatalf("err = %v, want ErrPastEvent", err)
	}
	if _, err := e.ScheduleAfter(-1, func(simtime.Time) {}); !errors.Is(err, ErrPastEvent) {
		t.Fatalf("err = %v, want ErrPastEvent", err)
	}
}

func TestScheduleNilHandler(t *testing.T) {
	e := New(nil)
	if _, err := e.Schedule(10, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestCancel(t *testing.T) {
	e := New(nil)
	fired := false
	id, err := e.Schedule(10, func(simtime.Time) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(id) {
		t.Fatal("Cancel returned true twice")
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := New(nil)
	var got []simtime.Time
	record := func(now simtime.Time) { got = append(got, now) }
	if _, err := e.Schedule(10, record); err != nil {
		t.Fatal(err)
	}
	id, err := e.Schedule(20, record)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Schedule(30, record); err != nil {
		t.Fatal(err)
	}
	e.Cancel(id)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Fatalf("fired %v, want [10 30]", got)
	}
}

func TestHandlerSchedulesFurtherEvents(t *testing.T) {
	e := New(nil)
	count := 0
	var tick Handler
	tick = func(now simtime.Time) {
		count++
		if count < 5 {
			if _, err := e.ScheduleAfter(10, tick); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e.Schedule(0, tick); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 40 {
		t.Fatalf("clock = %v, want 40", e.Now())
	}
}

func TestRunMaxEventsGuard(t *testing.T) {
	e := New(nil)
	calls := 0
	var loop Handler
	loop = func(simtime.Time) {
		calls++
		_, _ = e.ScheduleAfter(1, loop)
	}
	if _, err := e.Schedule(0, loop); err != nil {
		t.Fatal(err)
	}
	err := e.Run(100)
	if err == nil {
		t.Fatal("runaway loop not detected")
	}
	if !errors.Is(err, ErrMaxEvents) {
		t.Fatalf("runaway error = %v, want ErrMaxEvents", err)
	}
	// The error must carry how many events actually fired (satellite of
	// the runaway-guard bugfix: Run used to drop the fired count).
	if want := "fired 100 events"; !strings.Contains(err.Error(), want) {
		t.Fatalf("runaway error %q does not report the fired count (%q)", err, want)
	}
	if calls != 100 {
		t.Fatalf("fired %d events, want 100", calls)
	}
	// The budget is per call, not per engine lifetime: a fresh call gets a
	// fresh budget and trips again rather than instantly erroring.
	if err := e.Run(100); !errors.Is(err, ErrMaxEvents) {
		t.Fatalf("second Run = %v, want ErrMaxEvents again", err)
	}
	if calls != 200 {
		t.Fatalf("fired %d events across both calls, want 200", calls)
	}
}

// TestStepClampsClockAdvance pins the shared-clock contract: a handler
// that drives the clock past the next pending event's instant (virtual
// work charged mid-event) must not panic the clock backward — the late
// event fires at the current instant.
func TestStepClampsClockAdvance(t *testing.T) {
	e := New(nil)
	var fired []simtime.Time
	if _, err := e.Schedule(10, func(simtime.Time) {
		e.Clock().AdvanceTo(100) // virtual work overshoots the next event
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Schedule(20, func(simtime.Time) {
		fired = append(fired, e.Now())
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("overtaken event fired at %v, want at the clamped instant 100", fired)
	}
}

// Property: for any random schedule, events fire in non-decreasing
// timestamp order and same-timestamp events fire in schedule order.
func TestDeliveryOrderProperty(t *testing.T) {
	f := func(raw []uint16, seed int64) bool {
		e := New(nil)
		rng := rand.New(rand.NewSource(seed))
		type firing struct {
			at  simtime.Time
			seq int
		}
		var fired []firing
		for i, r := range raw {
			at := simtime.Time(r % 64) // force timestamp collisions
			i := i
			if _, err := e.Schedule(at, func(now simtime.Time) {
				fired = append(fired, firing{at: now, seq: i})
			}); err != nil {
				return false
			}
			// Randomly cancel ~1/4 of earlier events to exercise heap removal.
			if rng.Intn(4) == 0 && i > 0 {
				e.Cancel(EventID(rng.Intn(i) + 1))
			}
		}
		if err := e.Run(0); err != nil {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		}) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
