// Package sim stands in for a simulation package: it sits under an
// internal/ directory, so the analyzer governs it.
package sim

import (
	"time"
	wall "time"
)

// Tick reads the host clock and must be flagged.
func Tick() time.Time {
	return time.Now() // want `wall-clock time\.Now`
}

// Wait blocks on the host clock and must be flagged; the Millisecond
// constant itself is legal.
func Wait() {
	time.Sleep(time.Millisecond) // want `wall-clock time\.Sleep`
}

// Aliased imports are resolved through the import table.
func AliasTick() wall.Time {
	return wall.Now() // want `wall-clock time\.Now`
}

// Bench is a sanctioned wall-clock use: a reasoned directive on the
// line above suppresses the finding.
func Bench() time.Time {
	//horselint:allow-wallclock real wall-clock micro-bench fixture
	return time.Now()
}

// TrailingBench shows the same-line directive form.
func TrailingBench() time.Time {
	return time.Now() //horselint:allow-wallclock calibrating against host timer
}

// Bare directives carry no reason and therefore suppress nothing.
func Bare() time.Time {
	//horselint:allow-wallclock
	return time.Now() // want `wall-clock time\.Now`
}

// Span only converts and formats; no wall clock is read.
func Span(d time.Duration) string {
	return d.String()
}
