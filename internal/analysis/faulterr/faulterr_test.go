package faulterr_test

import (
	"testing"

	"github.com/horse-faas/horse/internal/analysis/analysistest"
	"github.com/horse-faas/horse/internal/analysis/faulterr"
)

func TestFaulterr(t *testing.T) {
	analysistest.Run(t, "testdata", faulterr.Default())
}
