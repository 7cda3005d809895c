package sharedrand_test

import (
	"testing"

	"github.com/horse-faas/horse/internal/analysis/analysistest"
	"github.com/horse-faas/horse/internal/analysis/sharedrand"
)

func TestSharedrand(t *testing.T) {
	analysistest.Run(t, "testdata", sharedrand.Default(), "./streams")
}

func TestGlobalRand(t *testing.T) {
	analysistest.Run(t, "testdata", sharedrand.Default(), "./randuse")
}
