// Package telemetry is the virtual-time observability layer of the
// reproduction: a hierarchical span tracer and a concurrent metrics
// registry, both recorded against the simulation's virtual clock, plus
// exporters for Chrome/Perfetto trace-event JSON and Prometheus text
// exposition.
//
// The paper's entire argument is a per-step cost breakdown of the
// pause/resume paths (Figures 2 and 3); this package turns those one-shot
// reports into a flight recorder. Every hypervisor pause/resume opens a
// span, every Stopwatch charge becomes a step event inside it, and the
// FaaS layer wraps both in invocation and replay spans, so a whole trace
// replay can be loaded into Perfetto and inspected step by step.
//
// Tracing is designed to cost nothing when off: a nil *Tracer is the
// disabled tracer, and it takes a zero-allocation early-return path in
// every method (see BenchmarkTracerNil), so instrumentation can stay
// wired through the hot resume path unconditionally.
package telemetry

import (
	"sync"

	"github.com/horse-faas/horse/internal/simtime"
)

// SpanID identifies one span within a tracer. 0 is "no span".
type SpanID uint64

// Attr is one string key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Event is one named, costed step inside a span — the telemetry twin of a
// simtime.StopwatchResult, but with its position on the virtual timeline
// preserved instead of aggregated.
type Event struct {
	Name  string           `json:"name"`
	Start simtime.Time     `json:"start"`
	Dur   simtime.Duration `json:"dur"`
}

// Span is one completed operation on the virtual timeline. Spans form a
// hierarchy through Parent: an invocation span contains a resume span,
// which contains per-step events such as "merge" or "psm-merge".
type Span struct {
	ID     SpanID       `json:"id"`
	Parent SpanID       `json:"parent,omitempty"`
	Name   string       `json:"name"`
	Start  simtime.Time `json:"start"`
	End    simtime.Time `json:"end"`
	// Track groups spans recorded under the same clock attachment;
	// experiment harnesses that rebuild the hypervisor per run get one
	// track per run, which the Perfetto exporter renders as one lane.
	Track  int     `json:"track"`
	Attrs  []Attr  `json:"attrs,omitempty"`
	Events []Event `json:"events,omitempty"`
}

// Attr returns the value of the attribute with the given key.
func (s *Span) Attr(key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// Duration returns the span's total virtual duration.
func (s *Span) Duration() simtime.Duration { return s.End.Sub(s.Start) }

// DefaultSpanCapacity bounds the finished-span ring buffer when
// TracerOptions.Capacity is zero. At ~200 bytes per span this keeps the
// recorder around a megabyte regardless of replay length.
const DefaultSpanCapacity = 4096

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// Capacity bounds the finished-span ring buffer (default
	// DefaultSpanCapacity). When full, the oldest span is overwritten and
	// Dropped() is incremented.
	Capacity int
}

// Tracer records hierarchical spans against a virtual clock.
//
// A Tracer is safe for concurrent use: all mutable state sits behind one
// mutex. One caveat: every operation reads the attached
// virtual clock, and clocks are unsynchronized single-goroutine
// simulation objects — so a Tracer must not be shared between
// simulations that RUN concurrently on different goroutines (use one
// Tracer per simulation and a shared Registry; see the concurrent replay
// test in internal/faas). Sequentially re-attaching clocks, as the
// experiment harnesses do, is fine.
type Tracer struct {
	mu      sync.Mutex
	clock   *simtime.Clock
	offset  int64 // added to clock readings to keep the merged timeline monotonic
	high    simtime.Time
	track   int
	nextID  SpanID
	open    map[SpanID]*Span
	stack   []SpanID
	done    []Span
	cap     int
	head    int
	total   uint64
	dropped uint64
}

// NewTracer builds a tracer. Attach a clock before recording spans.
func NewTracer(opts TracerOptions) *Tracer {
	c := opts.Capacity
	if c <= 0 {
		c = DefaultSpanCapacity
	}
	return &Tracer{
		cap:  c,
		open: make(map[SpanID]*Span),
	}
}

// Enabled reports whether new spans are being recorded: every non-nil
// tracer records.
func (t *Tracer) Enabled() bool { return t != nil }

// AttachClock binds the tracer to a virtual clock and opens a new track.
// Experiment harnesses that rebuild the hypervisor (and therefore the
// clock) per run call this once per run; the tracer offsets each new
// clock so the merged timeline never rewinds.
func (t *Tracer) AttachClock(c *simtime.Clock) {
	if t == nil || c == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock = c
	t.offset = int64(t.high) - int64(c.Now())
	t.track++
}

// now reads the attached clock through the monotonic offset. Callers hold
// t.mu.
func (t *Tracer) now() simtime.Time {
	if t.clock == nil {
		return t.high
	}
	ts := simtime.Time(int64(t.clock.Now()) + t.offset)
	if ts > t.high {
		t.high = ts
	}
	return ts
}

// StartSpan opens a span as a child of the innermost open span. When the
// tracer is nil it returns an inert SpanRef and allocates nothing.
func (t *Tracer) StartSpan(name string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	sp := &Span{
		ID:    t.nextID,
		Name:  name,
		Start: t.now(),
		Track: t.track,
	}
	if n := len(t.stack); n > 0 {
		sp.Parent = t.stack[n-1]
	}
	t.open[sp.ID] = sp
	t.stack = append(t.stack, sp.ID)
	return SpanRef{t: t, id: sp.ID}
}

// Spans returns the finished spans in completion order (oldest first).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.done))
	out = append(out, t.done[t.head:]...)
	out = append(out, t.done[:t.head]...)
	return out
}

// Total returns how many spans have finished since construction,
// including any the ring buffer has since dropped.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many finished spans the ring buffer overwrote.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// OpenSpans returns how many spans are currently open.
func (t *Tracer) OpenSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.open)
}

// Reset discards all finished and open spans but keeps the clock
// attachment.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done = t.done[:0]
	t.head = 0
	t.total = 0
	t.dropped = 0
	t.stack = t.stack[:0]
	t.open = make(map[SpanID]*Span)
}

// commit moves a finished span into the ring buffer. Callers hold t.mu.
func (t *Tracer) commit(sp *Span) {
	t.total++
	if len(t.done) < t.cap {
		t.done = append(t.done, *sp)
		return
	}
	t.done[t.head] = *sp
	t.head = (t.head + 1) % t.cap
	t.dropped++
}

// SpanRef is a lightweight handle to an open span. The zero value is
// inert: every method on it returns immediately without allocating,
// which is the tracer's disabled path.
type SpanRef struct {
	t  *Tracer
	id SpanID
}

// Active reports whether the ref points at a recording span.
func (s SpanRef) Active() bool { return s.t != nil }

// Attr annotates the span. Later values for the same key are appended,
// not replaced; exporters keep the last.
func (s SpanRef) Attr(key, value string) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if sp, ok := s.t.open[s.id]; ok {
		sp.Attrs = append(sp.Attrs, Attr{Key: key, Value: value})
	}
}

// Step records a costed step that just finished on the tracer's clock:
// the event covers [now-cost, now] on the virtual timeline. Call it right
// after the corresponding Stopwatch charge advanced the clock.
func (s SpanRef) Step(name string, cost simtime.Duration) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	sp, ok := s.t.open[s.id]
	if !ok {
		return
	}
	end := s.t.now()
	sp.Events = append(sp.Events, Event{Name: name, Start: end.Add(-cost), Dur: cost})
}

// End closes the span at the current virtual instant and commits it to
// the ring buffer.
func (s SpanRef) End() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	sp, ok := s.t.open[s.id]
	if !ok {
		return
	}
	sp.End = s.t.now()
	delete(s.t.open, s.id)
	// The stack usually pops LIFO; search from the top for robustness
	// when spans close out of order.
	for i := len(s.t.stack) - 1; i >= 0; i-- {
		if s.t.stack[i] == s.id {
			s.t.stack = append(s.t.stack[:i], s.t.stack[i+1:]...)
			break
		}
	}
	s.t.commit(sp)
}
