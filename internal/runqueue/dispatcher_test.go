package runqueue

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/horse-faas/horse/internal/simtime"
)

func dispatchSetup(t *testing.T) (*simtime.Clock, *Queue) {
	t.Helper()
	return simtime.NewClock(), New(true)
}

func TestDispatchSingleQuantumCompletion(t *testing.T) {
	clock, q := dispatchSetup(t)
	if _, _, err := q.Insert(vcpu("nat", 10)); err != nil {
		t.Fatal(err)
	}
	// A Category-3 workload (700ns) fits one 1µs quantum.
	work := map[string]simtime.Duration{"nat": 700 * simtime.Nanosecond}
	slices, err := Dispatch(clock, q, work)
	if err != nil {
		t.Fatal(err)
	}
	if len(slices) != 1 || !slices[0].Completed || slices[0].Ran != 700*simtime.Nanosecond {
		t.Fatalf("slices = %+v", slices)
	}
	if clock.Now() != simtime.Time(700) {
		t.Fatalf("clock = %v, want 700ns", clock.Now())
	}
}

func TestDispatchRoundRobinsLongWork(t *testing.T) {
	clock, q := dispatchSetup(t)
	// Two Category-1 style tasks (2.5µs each) share the 1µs-quantum
	// queue: each needs 3 slices, interleaved.
	if _, _, err := q.Insert(vcpu("a", 10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Insert(vcpu("b", 20)); err != nil {
		t.Fatal(err)
	}
	work := map[string]simtime.Duration{
		"a": 2500 * simtime.Nanosecond,
		"b": 2500 * simtime.Nanosecond,
	}
	slices, err := Dispatch(clock, q, work)
	if err != nil {
		t.Fatal(err)
	}
	stats := Summarize(slices)
	for _, id := range []string{"a", "b"} {
		st := stats[id]
		if st.Slices != 3 || !st.Completed || st.Ran != 2500*simtime.Nanosecond {
			t.Fatalf("%s stats = %+v", id, st)
		}
	}
	// "a" starts first (least credit) but both interleave: "b" must run
	// before "a" finishes.
	if stats["b"].FirstRun >= stats["a"].Finished {
		t.Fatalf("no interleaving: b first ran at %v, a finished at %v",
			stats["b"].FirstRun, stats["a"].Finished)
	}
	if clock.Now() != simtime.Time(5000) {
		t.Fatalf("makespan = %v, want 5µs", clock.Now())
	}
}

func TestDispatchZeroWorkEntity(t *testing.T) {
	clock, q := dispatchSetup(t)
	if _, _, err := q.Insert(vcpu("idle", 1)); err != nil {
		t.Fatal(err)
	}
	slices, err := Dispatch(clock, q, map[string]simtime.Duration{"idle": 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(slices) != 1 || !slices[0].Completed || slices[0].Ran != 0 {
		t.Fatalf("slices = %+v", slices)
	}
}

func TestDispatchErrors(t *testing.T) {
	clock, q := dispatchSetup(t)
	if _, _, err := q.Insert(vcpu("x", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := Dispatch(clock, q, map[string]simtime.Duration{}); !errors.Is(err, ErrUnknownWork) {
		t.Fatalf("missing work err = %v", err)
	}
	q2 := New(true)
	if _, _, err := q2.Insert(vcpu("y", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := Dispatch(nil, q2, map[string]simtime.Duration{"y": 1}); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := Dispatch(clock, q2, map[string]simtime.Duration{"y": -1}); err == nil {
		t.Fatal("negative work accepted")
	}
}

// Property: dispatch conserves work exactly (makespan == total demand on
// a single queue), every entity completes, and slice lengths never
// exceed the timeslice.
func TestDispatchConservationProperty(t *testing.T) {
	f := func(demands []uint16, seed int64) bool {
		if len(demands) == 0 {
			return true
		}
		if len(demands) > 24 {
			demands = demands[:24]
		}
		rng := rand.New(rand.NewSource(seed))
		clock, q := simtime.NewClock(), New(true)
		work := make(map[string]simtime.Duration, len(demands))
		var total simtime.Duration
		for i, d := range demands {
			id := fmt.Sprintf("e%d", i)
			demand := simtime.Duration(d % 5000) // up to 5µs
			work[id] = demand
			total += demand
			if _, _, err := q.Insert(vcpu(id, int64(rng.Intn(100)))); err != nil {
				return false
			}
		}
		slices, err := Dispatch(clock, q, work)
		if err != nil {
			return false
		}
		if clock.Now() != simtime.Time(total) {
			return false
		}
		stats := Summarize(slices)
		if len(stats) != len(demands) {
			return false
		}
		for _, s := range slices {
			if s.Ran > ULLTimeslice {
				return false
			}
		}
		for _, st := range stats {
			if !st.Completed {
				return false
			}
		}
		return q.Len() == 0 && len(work) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
