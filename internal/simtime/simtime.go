// Package simtime provides the virtual-time primitives used by every
// simulated component in this repository.
//
// The HORSE reproduction measures nanosecond-scale hypervisor operations
// that cannot be timed faithfully from userspace Go. Instead, simulated
// components execute their real data-structure operations and account the
// cost of each step on a deterministic virtual clock expressed in
// nanoseconds. Virtual time is totally ordered, never flows backwards, and
// is independent of the host's wall clock, which makes every experiment in
// this repository reproducible bit-for-bit.
package simtime

import (
	"fmt"
	"time"
)

// Time is an instant on the virtual clock, in nanoseconds since the start
// of the simulation. The zero Time is the simulation epoch.
type Time int64

// Duration is a span of virtual time in nanoseconds. It deliberately
// mirrors time.Duration so call sites can use the familiar unit constants
// re-exported below.
type Duration int64

// Common durations, aligned with the time package so expressions such as
// 5*simtime.Microsecond read naturally.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// String formats the instant as an offset from the epoch, e.g. "1.5ms".
func (t Time) String() string { return time.Duration(t).String() }

// String formats the duration using the time package's units.
func (d Duration) String() string { return time.Duration(d).String() }

// Nanoseconds returns the duration as an integer nanosecond count.
func (d Duration) Nanoseconds() int64 { return int64(d) }

// Clock is a monotonically advancing virtual clock.
//
// Clock is not safe for concurrent use; simulated components run under a
// single-threaded event loop (package eventsim) and share one Clock.
type Clock struct {
	now Time
}

// NewClock returns a clock positioned at the simulation epoch.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual instant.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d and returns the new instant.
// It panics if d is negative: virtual time never rewinds, and a negative
// advance always indicates a cost-model bug.
func (c *Clock) Advance(d Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative advance %d", d))
	}
	c.now = c.now.Add(d)
	return c.now
}

// AdvanceTo moves the clock forward to instant t. It panics if t precedes
// the current instant.
func (c *Clock) AdvanceTo(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("simtime: AdvanceTo moves backwards: now=%v target=%v", c.now, t))
	}
	c.now = t
}

// StopwatchResult is one named, costed step recorded by a Stopwatch.
type StopwatchResult struct {
	Label string
	Cost  Duration
}

// Stopwatch accumulates named virtual-time steps, advancing an underlying
// clock as it goes. It is how the resume engine produces the per-step
// breakdown behind the paper's Figure 2.
type Stopwatch struct {
	clock *Clock
	steps []StopwatchResult
}

// NewStopwatch returns a stopwatch bound to clock.
func NewStopwatch(clock *Clock) *Stopwatch {
	return &Stopwatch{clock: clock}
}

// Charge advances the clock by cost and records the step under label.
// Repeated labels accumulate into the same step, preserving first-seen
// order, so per-vCPU loops produce one aggregate row per step.
func (s *Stopwatch) Charge(label string, cost Duration) {
	s.clock.Advance(cost)
	for i := range s.steps {
		if s.steps[i].Label == label {
			s.steps[i].Cost += cost
			return
		}
	}
	s.steps = append(s.steps, StopwatchResult{Label: label, Cost: cost})
}

// Reset rebinds the stopwatch to clock and clears its steps, keeping
// the backing array so a pooled stopwatch records the next frame's
// steps without reallocating.
func (s *Stopwatch) Reset(clock *Clock) {
	s.clock = clock
	s.steps = s.steps[:0]
}

// AppendSteps appends the recorded steps, in first-seen order, to dst
// and returns the extended slice: a nil dst yields a fresh slice the
// caller owns, and a dst with room is filled without allocating.
func (s *Stopwatch) AppendSteps(dst []StopwatchResult) []StopwatchResult {
	return append(dst, s.steps...)
}

// Total returns the sum of all recorded step costs.
func (s *Stopwatch) Total() Duration {
	var total Duration
	for _, st := range s.steps {
		total += st.Cost
	}
	return total
}
