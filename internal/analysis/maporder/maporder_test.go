package maporder_test

import (
	"testing"

	"github.com/horse-faas/horse/internal/analysis/analysistest"
	"github.com/horse-faas/horse/internal/analysis/maporder"
)

func TestMaporder(t *testing.T) {
	analysistest.Run(t, "testdata", maporder.Default())
}
