package telemetry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
)

// TestWritePerfettoDigest pins the exporter's exact bytes on fixed
// inputs: two tracks numbered by first appearance, a category and
// none, sub-microsecond timestamps, step slices tiling a span,
// a span without steps, and the empty trace. Any change to field order,
// escaping, indentation, or number formatting shows up as a digest
// mismatch.
func TestWritePerfettoDigest(t *testing.T) {
	spans := []Span{
		{
			Track: "horse vcpus=4", Name: "resume", Cat: "horse", Start: 1500,
			Args:  map[string]string{"policy": "horse", "vcpus": "4"},
			Steps: []simtime.StopwatchResult{{Label: "fastpath", Cost: 34}, {Label: "psm-merge", Cost: 116}},
		},
		{Track: "track <&>", Name: "pause <&>", Start: 2000},
		{
			Track: "horse vcpus=4", Name: "invoke", Start: 123456789,
			Args:  map[string]string{"fn": "scan"},
			Steps: []simtime.StopwatchResult{{Label: "exec", Cost: 3210}},
		},
	}
	for _, tc := range []struct {
		name  string
		spans []Span
		want  string
	}{
		{"spans", spans, "ddee922206386bf78e08beb56cfb9e3d089aa7c93167da7a72e904d189584706"},
		{"empty", nil, "a6f236b042a1e6289b9db853c086e8274b8481fc2e02cd18f73b76438ece8552"},
	} {
		var buf bytes.Buffer
		if err := WritePerfetto(&buf, tc.spans); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: Perfetto output digest %s, want %s\n%s", tc.name, got, tc.want, buf.String())
		}
	}
}
