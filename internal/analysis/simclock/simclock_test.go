package simclock_test

import (
	"testing"

	"github.com/horse-faas/horse/internal/analysis/analysistest"
	"github.com/horse-faas/horse/internal/analysis/simclock"
)

func TestSimclock(t *testing.T) {
	analysistest.Run(t, "testdata", simclock.Default())
}
