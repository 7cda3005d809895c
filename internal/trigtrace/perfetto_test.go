package trigtrace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestWritePerfettoDigest pins the trigger exporter's exact bytes on
// fixed inputs: out-of-order traces (the writer sorts by seq), a
// tenanted and an untenanted track, a single-stage flow, a multi-stage
// flow across nodes with a reroute, an error outcome, and the empty
// trace. Any change to field order, escaping, indentation, or number
// formatting shows up as a digest mismatch.
func TestWritePerfettoDigest(t *testing.T) {
	traces := []*TriggerTrace{
		{
			ID: NewTraceID(7, 3), Seq: 3, Function: "scan", Tenant: "acme", Requested: "horse",
			Arrival: 5000, Budget: 50000, Latency: 0, EndToEnd: 2500, Err: `no "nodes"`, Violated: true, Failovers: 2,
			Stages: []StageRecord{
				{Stage: StageReroute, Start: 5000, Node: "node01", Detail: "node-failed"},
				{Stage: StageFailedAttempt, Start: 5000, Dur: 1250, Node: "node02", Mode: "horse", Detail: "trigger-failed"},
				{Stage: StageReroute, Start: 6250, Node: "node02", Detail: "trigger-failed"},
			},
		},
		{
			ID: NewTraceID(7, 1), Seq: 1, Function: "nat", Requested: "warm", Served: "warm", Node: "node00",
			Arrival: 1001, Budget: 0, Latency: 1901, EndToEnd: 1901,
			Stages: []StageRecord{{Stage: StageInvoke, Start: 1001, Dur: 1901, Node: "node00", Mode: "warm"}},
		},
	}
	for _, tc := range []struct {
		name   string
		traces []*TriggerTrace
		want   string
	}{
		{"traces", traces, "9ce8f698368338aa28984542fa4dff3e26b0c03a34cdd0db62a395bac9d9f458"},
		{"empty", nil, "a6f236b042a1e6289b9db853c086e8274b8481fc2e02cd18f73b76438ece8552"},
	} {
		var buf bytes.Buffer
		if err := WritePerfetto(&buf, tc.traces); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: Perfetto output digest %s, want %s\n%s", tc.name, got, tc.want, buf.String())
		}
	}
}
