// Package sched simulates the host's multi-core task scheduling for the
// experiments that colocate workloads (paper §5.2 and §5.4).
//
// The model is deliberately scoped to what those experiments measure:
// tasks occupy a core for a virtual duration; when every core is busy,
// arrivals queue FIFO; and high-priority tasks — P²SM merge threads, which
// "are given the highest priority to preempt any task on the run queue
// where [they are] scheduled" (§4.1.3) — may preempt a running task,
// delaying its completion by the preemptor's duration plus the context-
// switch overhead. That delay is exactly the ≈30 µs 99th-percentile
// inflation the paper reports for 36-vCPU uLL sandboxes.
package sched

import (
	"errors"
	"fmt"

	"github.com/horse-faas/horse/internal/eventsim"
	"github.com/horse-faas/horse/internal/simtime"
)

// Priority orders tasks; higher preempts lower.
type Priority int

// Priorities.
const (
	// PriorityNormal is ordinary function execution.
	PriorityNormal Priority = 0
	// PriorityMerge is a P²SM splice thread (highest).
	PriorityMerge Priority = 100
)

// Task is one schedulable unit of virtual work.
type Task struct {
	// ID names the task in stats and errors.
	ID string
	// Priority orders preemption.
	Priority Priority
	// Duration is the virtual CPU time the task needs.
	Duration simtime.Duration
	// ExtraPenalty is additional delay charged to a preempted victim
	// beyond Duration and one context switch. It models a same-core
	// burst of preemptors — e.g. the per-thread context switches of a
	// P²SM merge burst pinned to one core — without scheduling each
	// thread separately. Ignored when the task starts on an idle core.
	ExtraPenalty simtime.Duration
	// OnDone, if set, fires when the task completes. submitted is when
	// the task entered the scheduler; end is the completion instant, so
	// end-submitted is the task's latency including queueing and
	// preemption delays.
	OnDone func(submitted, end simtime.Time)
}

// Stats aggregates scheduler behaviour.
type Stats struct {
	Completed    uint64
	Preemptions  uint64
	Enqueued     uint64
	PreemptDelay simtime.Duration
	BusyTime     simtime.Duration
}

// ErrNoCPUs reports a scheduler built without cores.
var ErrNoCPUs = errors.New("sched: need at least one CPU")

type execution struct {
	task      *Task
	submitted simtime.Time
	startedAt simtime.Time
	remaining simtime.Duration
	doneEvent eventsim.EventID
	preempts  int
}

type cpu struct {
	id        int
	running   *execution
	preempted []*execution // LIFO resume stack
}

// Scheduler dispatches tasks over a fixed set of simulated cores, driven
// by an eventsim engine. It is single-threaded like the engine.
type Scheduler struct {
	eng   *eventsim.Engine
	cpus  []*cpu
	queue []*execution
	stats Stats
}

// Options configures a Scheduler.
type Options struct {
	// CPUs is the core count (default 36).
	CPUs int
}

// CtxSwitch is the overhead a preempted task pays to be switched out
// and back in, charged once per preemption.
const CtxSwitch = 700 * simtime.Nanosecond

// New builds a scheduler over the engine.
func New(eng *eventsim.Engine, opts Options) (*Scheduler, error) {
	if opts.CPUs == 0 {
		opts.CPUs = 36
	}
	if opts.CPUs < 0 {
		return nil, fmt.Errorf("%w: got %d", ErrNoCPUs, opts.CPUs)
	}
	s := &Scheduler{eng: eng}
	for i := 0; i < opts.CPUs; i++ {
		s.cpus = append(s.cpus, &cpu{id: i})
	}
	return s, nil
}

// Stats returns a copy of the aggregate counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// CPUs returns the core count.
func (s *Scheduler) CPUs() int { return len(s.cpus) }

// QueueLen returns the number of tasks waiting for a core.
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// Submit dispatches a task: it starts immediately on an idle core or
// queues FIFO otherwise.
func (s *Scheduler) Submit(t *Task) error {
	if t == nil || t.Duration < 0 {
		return errors.New("sched: invalid task")
	}
	ex := &execution{task: t, submitted: s.eng.Now(), remaining: t.Duration}
	if c := s.idleCPU(); c != nil {
		return s.start(c, ex)
	}
	s.queue = append(s.queue, ex)
	s.stats.Enqueued++
	return nil
}

// SubmitPreemptingPinned dispatches a high-priority task whose core was
// chosen before submission — the situation of a P²SM merge thread, whose
// placement was fixed when the sandbox was paused (§4.1.3). It preempts a
// lower-priority running task even when idle cores exist, falling back to
// an idle core only when nothing is preemptible. This is why the paper
// observes merge-thread preemptions although the experiment is sized so
// that both function categories "theoretically have enough available
// cores" (§5.4).
func (s *Scheduler) SubmitPreemptingPinned(t *Task) error {
	if t == nil || t.Duration < 0 {
		return errors.New("sched: invalid task")
	}
	ex := &execution{task: t, submitted: s.eng.Now(), remaining: t.Duration}
	victim := s.preemptionVictim(t.Priority)
	if victim == nil {
		if c := s.idleCPU(); c != nil {
			return s.start(c, ex)
		}
		// Everything running is at equal or higher priority; wait FIFO.
		s.queue = append(s.queue, ex)
		s.stats.Enqueued++
		return nil
	}
	now := s.eng.Now()
	run := victim.running
	s.eng.Cancel(run.doneEvent)
	run.remaining -= now.Sub(run.startedAt)
	if run.remaining < 0 {
		run.remaining = 0
	}
	run.remaining += CtxSwitch + t.ExtraPenalty
	run.preempts++
	s.stats.BusyTime += now.Sub(run.startedAt)
	s.stats.Preemptions++
	s.stats.PreemptDelay += t.Duration + CtxSwitch + t.ExtraPenalty
	victim.preempted = append(victim.preempted, run)
	victim.running = nil
	return s.start(victim, ex)
}

// idleCPU returns an idle core or nil.
func (s *Scheduler) idleCPU() *cpu {
	for _, c := range s.cpus {
		if c.running == nil {
			return c
		}
	}
	return nil
}

// preemptionVictim picks a core whose running task has priority below p.
// Among eligible victims it prefers tasks not yet preempted (merge-thread
// placement avoids run queues it already disturbed) and, among those, the
// longest-running one. This spreads bursts one-per-task instead of
// repeatedly punishing a single function — which is why the paper
// observes a single ≈30 µs preemption on the 99th percentile, not an
// accumulation (§5.4).
func (s *Scheduler) preemptionVictim(p Priority) *cpu {
	var best *cpu
	for _, c := range s.cpus {
		run := c.running
		if run == nil || run.task.Priority >= p {
			continue
		}
		if best == nil {
			best = c
			continue
		}
		b := best.running
		switch {
		case run.preempts < b.preempts:
			best = c
		case run.preempts == b.preempts && run.submitted < b.submitted:
			best = c
		}
	}
	return best
}

// start runs ex on core c and schedules its completion.
func (s *Scheduler) start(c *cpu, ex *execution) error {
	ex.startedAt = s.eng.Now()
	id, err := s.eng.ScheduleAfter(ex.remaining, func(now simtime.Time) {
		s.complete(c, ex, now)
	})
	if err != nil {
		return fmt.Errorf("sched: scheduling completion: %w", err)
	}
	ex.doneEvent = id
	c.running = ex
	return nil
}

// complete finishes ex on c and dispatches the next work for that core:
// first the LIFO stack of preempted tasks, then the global FIFO queue.
func (s *Scheduler) complete(c *cpu, ex *execution, now simtime.Time) {
	c.running = nil
	s.stats.Completed++
	s.stats.BusyTime += ex.remaining
	if ex.task.OnDone != nil {
		ex.task.OnDone(ex.submitted, now)
	}
	if n := len(c.preempted); n > 0 {
		resumed := c.preempted[n-1]
		c.preempted = c.preempted[:n-1]
		if err := s.start(c, resumed); err != nil {
			panic(fmt.Sprintf("sched: resume after preemption: %v", err))
		}
		return
	}
	if len(s.queue) > 0 {
		next := s.queue[0]
		s.queue = s.queue[1:]
		if err := s.start(c, next); err != nil {
			panic(fmt.Sprintf("sched: dequeue: %v", err))
		}
	}
}
