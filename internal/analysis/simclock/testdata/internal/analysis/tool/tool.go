// Package tool stands in for the analysis tree: it lies under
// internal/ but never runs on the virtual clock, so the analyzer stays
// silent.
package tool

import "time"

// Stamp legitimately reads the host clock.
func Stamp() time.Time {
	return time.Now()
}
