package trigtrace

import (
	"fmt"
	"io"
	"sort"

	"github.com/horse-faas/horse/internal/telemetry"
)

// The trigger-trace Perfetto export encodes through internal/telemetry's
// trace-event writer (telemetry.TraceEvent), but the track model
// differs: one thread track per retained trigger (the span tree), and a
// flow chain (ph "s"/"t"/"f", id = trace hex) threaded through the
// trigger's stage slices so failover hops read as one connected arrow
// in the UI even when the stages ran on different nodes.
//
// Output is deterministic: triggers render in arrival-sequence order,
// stage slices in causal order, and every args map is emitted by
// encoding/json, which sorts keys — no map iteration order leaks.

// triggerPID is the simulated process the trigger tracks belong to. It
// is distinct from telemetry's perfettoPID so a merged view keeps
// hypervisor tracks and trigger tracks in separate process groups.
const triggerPID = 2

// WritePerfetto emits the retained trigger span trees as
// Chrome/Perfetto trace-event JSON: one named track per trigger, a root
// slice covering arrival→response, one slice per stage, and a flow
// chain carrying the trace ID across the stages. Load the output at
// ui.perfetto.dev. Traces render in arrival-sequence order regardless
// of input order, so merging multiple nodes' retained sets stays
// byte-stable.
func WritePerfetto(w io.Writer, traces []*TriggerTrace) error {
	ordered := append([]*TriggerTrace(nil), traces...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Seq < ordered[j].Seq })

	var events []telemetry.TraceEvent
	for tid, tr := range ordered {
		status := "ok"
		if tr.Violated {
			status = "slo-violation"
		}
		// Tenanted triggers carry the tenant in the track name, so the
		// Perfetto track list groups one tenant's triggers together.
		trackName := fmt.Sprintf("trigger %d %s [%s]", tr.Seq, tr.Function, tr.IDString())
		if tr.Tenant != "" {
			trackName = fmt.Sprintf("trigger %d %s/%s [%s]", tr.Seq, tr.Tenant, tr.Function, tr.IDString())
		}
		events = append(events, telemetry.TraceEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  triggerPID,
			Tid:  tid,
			Args: map[string]string{
				"name": trackName,
			},
		})

		rootArgs := map[string]string{
			"trace_id":  tr.IDString(),
			"seq":       fmt.Sprintf("%d", tr.Seq),
			"requested": tr.Requested,
			"served":    tr.Served,
			"node":      tr.Node,
			"latency":   fmt.Sprintf("%d", int64(tr.Latency)),
			"endtoend":  fmt.Sprintf("%d", int64(tr.EndToEnd)),
			"budget":    fmt.Sprintf("%d", int64(tr.Budget)),
			"status":    status,
			"err":       tr.Err,
			"failovers": fmt.Sprintf("%d", tr.Failovers),
		}
		if tr.Tenant != "" {
			rootArgs["tenant"] = tr.Tenant
		}
		rootDur := telemetry.Micros(int64(tr.EndToEnd))
		events = append(events, telemetry.TraceEvent{
			Name: "trigger " + tr.Function,
			Cat:  "trigger",
			Ph:   "X",
			Ts:   telemetry.Micros(int64(tr.Arrival)),
			Dur:  &rootDur,
			Pid:  triggerPID,
			Tid:  tid,
			Args: rootArgs,
		})

		for i, s := range tr.Stages {
			dur := telemetry.Micros(int64(s.Dur))
			args := map[string]string{
				"trace_id": tr.IDString(),
				"class":    string(StageClass(s.Stage)),
			}
			if s.Node != "" {
				args["node"] = s.Node
			}
			if s.Mode != "" {
				args["mode"] = s.Mode
			}
			if s.Detail != "" {
				args["detail"] = s.Detail
			}
			events = append(events, telemetry.TraceEvent{
				Name: string(s.Stage),
				Cat:  string(StageClass(s.Stage)),
				Ph:   "X",
				Ts:   telemetry.Micros(int64(s.Start)),
				Dur:  &dur,
				Pid:  triggerPID,
				Tid:  tid,
				Args: args,
			})

			// Flow chain: start on the first stage, step through the rest,
			// finish on the last. bp "e" binds each arrow to the enclosing
			// stage slice just emitted at the same (ts, tid).
			ph := "t"
			switch i {
			case 0:
				ph = "s"
			case len(tr.Stages) - 1:
				ph = "f"
			}
			flow := telemetry.TraceEvent{
				Name: "trigger-flow",
				Cat:  "trigger",
				Ph:   ph,
				ID:   tr.IDString(),
				Ts:   telemetry.Micros(int64(s.Start)),
				Pid:  triggerPID,
				Tid:  tid,
			}
			if ph != "s" {
				flow.BP = "e"
			}
			events = append(events, flow)
		}
	}
	return telemetry.WriteTraceEvents(w, events)
}
