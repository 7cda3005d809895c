package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The Chrome trace-event JSON format (also read by ui.perfetto.dev):
// https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//
// Each finished span becomes a complete ("X") event; each step event
// inside a span becomes a nested complete event on the same track, so
// Perfetto renders the resume breakdown as a flame of per-step slices.
// Timestamps are microseconds (float), the format's native unit.

// TraceEvent is one Chrome trace-event record. It is the one encoding
// both Perfetto exporters (this package's span export and trigtrace's
// trigger export) share; ID and BP carry flow arrows and are omitted
// when empty.
type TraceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	ID   string            `json:"id,omitempty"`
	BP   string            `json:"bp,omitempty"`
	Ts   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// Micros converts virtual nanoseconds to trace-event microseconds.
func Micros(ns int64) float64 { return float64(ns) / 1e3 }

// WriteTraceEvents encodes events as an indented trace-event document
// with nanosecond display units. A nil slice encodes as an empty
// traceEvents array.
func WriteTraceEvents(w io.Writer, events []TraceEvent) error {
	if events == nil {
		events = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents     []TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ns"})
}

// perfettoPID is the single simulated process all tracks belong to.
const perfettoPID = 1

// WritePerfetto emits the spans as Chrome/Perfetto trace-event JSON.
// Load the output at ui.perfetto.dev or chrome://tracing.
func WritePerfetto(w io.Writer, spans []Span) error {
	var events []TraceEvent

	// Name each track so runs read as "track 3" lanes instead of bare
	// thread ids.
	tracks := map[int]bool{}
	for _, sp := range spans {
		tracks[sp.Track] = true
	}
	ids := make([]int, 0, len(tracks))
	for id := range tracks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		events = append(events, TraceEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  perfettoPID,
			Tid:  id,
			Args: map[string]string{"name": fmt.Sprintf("track %d", id)},
		})
	}

	for _, sp := range spans {
		cat := "span"
		if policy, ok := sp.Attr("policy"); ok {
			cat = policy
		}
		args := make(map[string]string, len(sp.Attrs)+1)
		for _, a := range sp.Attrs {
			args[a.Key] = a.Value // last value wins
		}
		dur := Micros(int64(sp.Duration()))
		events = append(events, TraceEvent{
			Name: sp.Name,
			Cat:  cat,
			Ph:   "X",
			Ts:   Micros(int64(sp.Start)),
			Dur:  &dur,
			Pid:  perfettoPID,
			Tid:  sp.Track,
			Args: args,
		})
		for _, ev := range sp.Events {
			evDur := Micros(int64(ev.Dur))
			events = append(events, TraceEvent{
				Name: ev.Name,
				Cat:  "step",
				Ph:   "X",
				Ts:   Micros(int64(ev.Start)),
				Dur:  &evDur,
				Pid:  perfettoPID,
				Tid:  sp.Track,
				Args: map[string]string{"span": sp.Name},
			})
		}
	}
	return WriteTraceEvents(w, events)
}
