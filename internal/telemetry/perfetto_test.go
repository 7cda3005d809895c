package telemetry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestWritePerfettoDigest pins the exporter's exact bytes on fixed
// inputs: several tracks, a repeated attribute (last value wins), a
// policy category, sub-microsecond timestamps, step events, and the
// empty trace. Any change to field order, escaping, indentation, or
// number formatting shows up as a digest mismatch.
func TestWritePerfettoDigest(t *testing.T) {
	spans := []Span{
		{
			ID: 1, Name: "resume", Start: 1500, End: 1650, Track: 2,
			Attrs:  []Attr{{Key: "policy", Value: "horse"}, {Key: "vcpus", Value: "4"}, {Key: "vcpus", Value: "36"}},
			Events: []Event{{Name: "fastpath", Start: 1500, Dur: 34}, {Name: "psm-merge", Start: 1534, Dur: 116}},
		},
		{ID: 2, Parent: 1, Name: "pause <&>", Start: 2000, End: 2999, Track: 0},
		{ID: 3, Name: "invoke", Start: 123456789, End: 123459999, Track: 2, Attrs: []Attr{{Key: "fn", Value: "scan"}}},
	}
	for _, tc := range []struct {
		name  string
		spans []Span
		want  string
	}{
		{"spans", spans, "d690f341f98f29d26089d395937dc8eca4ea15ae17aab53e1033b88bfa1f2fd9"},
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
