package telemetry

import (
	"encoding/json"
	"io"

	"github.com/horse-faas/horse/internal/simtime"
)

// The Chrome trace-event JSON format (also read by ui.perfetto.dev):
// https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//
// Each span becomes a complete ("X") event; each of its steps becomes a
// nested complete event on the same track, so Perfetto renders a
// resume breakdown as a row of per-step slices under the resume slice.
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

// perfettoPID is the single simulated process all span tracks belong to.
const perfettoPID = 1

// Span is one slice of the virtual timeline, tiled by its steps: the
// first step starts at Start and each next one where the last ended, so
// the span covers exactly the steps' summed cost. A pause or resume
// report's steps, in first-charge order, are such a tiling.
type Span struct {
	// Track names the lane the span is drawn on; spans that share a
	// track share a lane.
	Track string
	Name  string
	// Cat is the span's trace-event category.
	Cat   string
	Start simtime.Time
	Args  map[string]string
	Steps []simtime.StopwatchResult
}

// WritePerfetto emits the spans as Chrome/Perfetto trace-event JSON: a
// named track per distinct Track, numbered in order of first
// appearance, a complete ("X") event per span, and one nested "step"
// event per step. Load the output at ui.perfetto.dev or
// chrome://tracing.
func WritePerfetto(w io.Writer, spans []Span) error {
	var events []TraceEvent
	tids := map[string]int{}
	for _, sp := range spans {
		if _, ok := tids[sp.Track]; ok {
			continue
		}
		tids[sp.Track] = len(tids) + 1
		events = append(events, TraceEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  perfettoPID,
			Tid:  len(tids),
			Args: map[string]string{"name": sp.Track},
		})
	}
	for _, sp := range spans {
		tid := tids[sp.Track]
		span := len(events)
		events = append(events, TraceEvent{
			Name: sp.Name,
			Cat:  sp.Cat,
			Ph:   "X",
			Ts:   Micros(int64(sp.Start)),
			Pid:  perfettoPID,
			Tid:  tid,
			Args: sp.Args,
		})
		at := sp.Start
		for _, st := range sp.Steps {
			dur := Micros(int64(st.Cost))
			events = append(events, TraceEvent{
				Name: st.Label,
				Cat:  "step",
				Ph:   "X",
				Ts:   Micros(int64(at)),
				Dur:  &dur,
				Pid:  perfettoPID,
				Tid:  tid,
				Args: map[string]string{"span": sp.Name},
			})
			at = at.Add(st.Cost)
		}
		dur := Micros(int64(at.Sub(sp.Start)))
		events[span].Dur = &dur
	}
	return WriteTraceEvents(w, events)
}
