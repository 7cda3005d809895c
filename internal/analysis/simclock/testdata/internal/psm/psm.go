// Package psm stands in for a simulation package that no list names:
// lying under internal/ is enough for the analyzer to govern it.
package psm

import "time"

// Stamp reads the host clock and must be flagged.
func Stamp() time.Time {
	return time.Now() // want `wall-clock time\.Now in simulation package internal/psm`
}
