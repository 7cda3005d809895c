// Package eventsim implements the discrete-event simulation engine that
// drives the scheduler substrate and the colocation experiment, plus
// the ShardGroup barrier of the sharded cluster run.
//
// The engine maintains a priority queue of timestamped events over a shared
// virtual clock (package simtime). Events scheduled for the same instant
// fire in scheduling order, which keeps every simulation deterministic: the
// same inputs always produce the same interleavings and therefore the same
// measured latencies.
package eventsim

import (
	"container/heap"
	"errors"
	"fmt"

	"github.com/horse-faas/horse/internal/simtime"
)

// EventID identifies a scheduled event so it can be cancelled. IDs are
// never reused within one Engine.
type EventID uint64

// Handler is the callback invoked when an event fires. now is the virtual
// instant of the event, which is also the engine clock's current reading.
type Handler func(now simtime.Time)

// ErrPastEvent is returned when an event is scheduled before the current
// virtual instant.
var ErrPastEvent = errors.New("eventsim: event scheduled in the past")

// ErrMaxEvents is the runaway guard: Run returns an error matching it
// (with the fired and pending counts) when the event budget is
// exhausted while work is still pending. The cluster run's arrival cap
// reports the same error.
var ErrMaxEvents = errors.New("eventsim: max events exceeded")

type event struct {
	id      EventID
	at      simtime.Time
	seq     uint64 // tiebreak: same-instant events fire in schedule order
	handler Handler
	index   int // heap index, -1 once popped or cancelled
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; handlers run on the caller's goroutine.
type Engine struct {
	clock   *simtime.Clock
	heap    eventHeap
	pending map[EventID]*event
	nextID  EventID
	nextSeq uint64
}

// New returns an engine over the given clock. Passing a nil clock creates
// a fresh one positioned at the epoch.
func New(clock *simtime.Clock) *Engine {
	if clock == nil {
		clock = simtime.NewClock()
	}
	return &Engine{
		clock:   clock,
		pending: make(map[EventID]*event),
	}
}

// Clock returns the engine's virtual clock.
func (e *Engine) Clock() *simtime.Clock { return e.clock }

// Now returns the current virtual instant.
func (e *Engine) Now() simtime.Time { return e.clock.Now() }

// Len returns the number of pending events.
func (e *Engine) Len() int { return len(e.heap) }

// Schedule registers handler to fire at the absolute instant at.
// Scheduling at the current instant is allowed (the event fires on the
// next Step); scheduling in the past returns ErrPastEvent.
func (e *Engine) Schedule(at simtime.Time, handler Handler) (EventID, error) {
	if at < e.clock.Now() {
		return 0, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, e.clock.Now())
	}
	if handler == nil {
		return 0, errors.New("eventsim: nil handler")
	}
	e.nextID++
	e.nextSeq++
	ev := &event{id: e.nextID, at: at, seq: e.nextSeq, handler: handler}
	heap.Push(&e.heap, ev)
	e.pending[ev.id] = ev
	return ev.id, nil
}

// ScheduleAfter registers handler to fire d after the current instant.
func (e *Engine) ScheduleAfter(d simtime.Duration, handler Handler) (EventID, error) {
	if d < 0 {
		return 0, fmt.Errorf("%w: negative delay %v", ErrPastEvent, d)
	}
	return e.Schedule(e.clock.Now().Add(d), handler)
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false if it already fired or was cancelled).
func (e *Engine) Cancel(id EventID) bool {
	ev, ok := e.pending[id]
	if !ok {
		return false
	}
	delete(e.pending, id)
	heap.Remove(&e.heap, ev.index)
	return true
}

// Step fires the earliest pending event, advancing the clock to its
// instant first. It reports whether an event fired.
//
// The advance is clamped: when the engine shares its clock with code
// that charges virtual work directly, the clock may already be past the
// next event's instant, and the event then fires at the current instant
// instead of panicking the clock backward. The handler still receives
// the event's scheduled instant as now.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := heap.Pop(&e.heap).(*event)
	delete(e.pending, ev.id)
	if ev.at > e.clock.Now() {
		e.clock.AdvanceTo(ev.at)
	}
	ev.handler(ev.at)
	return true
}

// Run fires events until none remain. Handlers may schedule further
// events; Run continues until the queue drains. maxEvents bounds the
// number of events fired by this call (0 means unbounded) and guards
// against runaway self-scheduling loops; exceeding it returns an error
// matching ErrMaxEvents that carries the fired and pending counts.
func (e *Engine) Run(maxEvents int) error {
	for fired := 1; e.Step(); fired++ {
		if maxEvents > 0 && fired >= maxEvents && e.Len() > 0 {
			return fmt.Errorf("%w: run fired %d events (cap %d) with %d still pending",
				ErrMaxEvents, fired, maxEvents, e.Len())
		}
	}
	return nil
}
