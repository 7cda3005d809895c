package simtime

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestDurationUnits(t *testing.T) {
	tests := []struct {
		name string
		give Duration
		want int64
	}{
		{name: "nanosecond", give: Nanosecond, want: 1},
		{name: "microsecond", give: Microsecond, want: 1_000},
		{name: "millisecond", give: Millisecond, want: 1_000_000},
		{name: "second", give: Second, want: 1_000_000_000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.give.Nanoseconds(); got != tt.want {
				t.Fatalf("Nanoseconds() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestTimeArithmetic(t *testing.T) {
	base := Time(100)
	if got := base.Add(50 * Nanosecond); got != Time(150) {
		t.Fatalf("Add = %d, want 150", got)
	}
	if got := Time(150).Sub(base); got != 50*Nanosecond {
		t.Fatalf("Sub = %d, want 50", got)
	}
	if !base.Before(Time(101)) {
		t.Fatal("Before(101) = false, want true")
	}
	if !Time(101).After(base) {
		t.Fatal("After(100) = false, want true")
	}
}

func TestDurationConversions(t *testing.T) {
	d := 1500 * Microsecond
	if got := d.String(); got != "1.5ms" {
		t.Fatalf("String = %q, want 1.5ms", got)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want epoch", c.Now())
	}
	c.Advance(10 * Nanosecond)
	c.Advance(5 * Nanosecond)
	if got := c.Now(); got != Time(15) {
		t.Fatalf("Now = %v, want 15", got)
	}
	c.AdvanceTo(Time(100))
	if got := c.Now(); got != Time(100) {
		t.Fatalf("Now = %v, want 100", got)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewClock().Advance(-1)
}

func TestClockAdvanceToBackwardsPanics(t *testing.T) {
	c := NewClock()
	c.Advance(10)
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo(past) did not panic")
		}
	}()
	c.AdvanceTo(Time(5))
}

func TestStopwatchChargeAccumulates(t *testing.T) {
	c := NewClock()
	sw := NewStopwatch(c)
	sw.Charge("merge", 10)
	sw.Charge("load", 3)
	sw.Charge("merge", 7)

	if got := c.Now(); got != Time(20) {
		t.Fatalf("clock advanced to %v, want 20", got)
	}
	steps := sw.AppendSteps(nil)
	if len(steps) != 2 {
		t.Fatalf("got %d steps, want 2", len(steps))
	}
	if steps[0].Label != "merge" || steps[0].Cost != 17 {
		t.Fatalf("step[0] = %+v, want merge/17", steps[0])
	}
	if steps[1].Label != "load" || steps[1].Cost != 3 {
		t.Fatalf("step[1] = %+v, want load/3", steps[1])
	}
	if got := sw.Total(); got != 20 {
		t.Fatalf("Total = %v, want 20", got)
	}
}

func TestStopwatchStepsIsCopy(t *testing.T) {
	sw := NewStopwatch(NewClock())
	sw.Charge("a", 1)
	steps := sw.AppendSteps(nil)
	steps[0].Cost = 999
	if sw.steps[0].Cost != 1 {
		t.Fatal("AppendSteps(nil) exposed internal state")
	}

	// A dst with room is extended in place, after its prefix, and the
	// copy is still the caller's own.
	sw.Charge("b", 2)
	buf := make([]StopwatchResult, 1, 8)
	buf[0] = StopwatchResult{Label: "prefix", Cost: 7}
	got := sw.AppendSteps(buf)
	want := []StopwatchResult{{"prefix", 7}, {"a", 1}, {"b", 2}}
	if !reflect.DeepEqual(got, want) || &got[0] != &buf[0] {
		t.Fatalf("AppendSteps(buf) = %v (in place %v), want %v in place", got, &got[0] == &buf[0], want)
	}
	got[1].Cost = 999
	if sw.steps[0].Cost != 1 {
		t.Fatal("AppendSteps(buf) exposed internal state")
	}
	if n := testing.AllocsPerRun(100, func() { got = sw.AppendSteps(buf[:0]) }); n != 0 {
		t.Fatalf("AppendSteps into a roomy dst allocates %v, want 0", n)
	}
}

// Property: charging any sequence of non-negative costs advances the clock
// by exactly their sum, and Total always equals the clock displacement.
func TestStopwatchTotalMatchesClock(t *testing.T) {
	f := func(costs []uint16) bool {
		c := NewClock()
		sw := NewStopwatch(c)
		var sum Duration
		for i, raw := range costs {
			d := Duration(raw)
			label := "step"
			if i%3 == 0 {
				label = "other"
			}
			sw.Charge(label, d)
			sum += d
		}
		return sw.Total() == sum && c.Now() == Time(sum)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
