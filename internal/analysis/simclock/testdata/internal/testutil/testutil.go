// Package testutil stands in for the test harness plumbing: it lies
// under internal/ but is exempt, so the analyzer stays silent.
package testutil

import "time"

// Deadline legitimately reads the host clock.
func Deadline(d time.Duration) time.Time {
	return time.Now().Add(d)
}
