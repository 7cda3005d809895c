// Package randuse exercises sharedrand's site rule: global draws and
// wall-clock seeds are flagged, explicitly seeded sources are clean.
package randuse

import (
	"math/rand"
	"time"
)

// Draw uses the shared global source and must be flagged.
func Draw() int {
	return rand.Intn(10) // want `global rand\.Intn`
}

// Reseed mutates the global source and must be flagged.
func Reseed() {
	rand.Seed(42) // want `global rand\.Seed`
}

// AsValue passes a global draw function around; still flagged.
func AsValue() func() float64 {
	return rand.Float64 // want `global rand\.Float64`
}

// Clocky defeats determinism by seeding from the host clock.
func Clocky() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `seeded from the wall clock`
}

// Seeded is the sanctioned pattern: an explicit seed threaded in by the
// caller.
func Seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Sanctioned draws on an explicit *rand.Rand are clean.
func SanctionedDraw(rng *rand.Rand) int {
	return rng.Intn(10)
}

// Annotated is a reasoned escape hatch.
func Annotated() int {
	return rand.Intn(10) //horselint:allow-sharedrand jitter for a non-measured log line
}
