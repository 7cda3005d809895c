// Package runqueue provides the CPU-sorted run queues of the simulated
// virtualization system (paper §3.1 step ④).
//
// Each physical CPU owns a run queue sorted by the scheduler's sort
// attribute — with a credit2-style scheduler, ascending remaining credit,
// so the entity with the least remaining credit runs first. The vanilla
// resume path performs a sequential sorted merge of every resuming vCPU
// into such a queue; HORSE instead reserves one or more queues for uLL
// sandboxes (ull_runqueue, §4.1.3) with a 1 µs maximum timeslice and keeps
// P²SM's auxiliary structures synchronized with every queue update through
// the Observer mechanism in this package.
package runqueue

import (
	"errors"
	"fmt"

	"github.com/horse-faas/horse/internal/pelt"
	"github.com/horse-faas/horse/internal/psm"
	"github.com/horse-faas/horse/internal/simtime"
)

// EntityKind distinguishes what a run-queue entity represents.
type EntityKind int

// Entity kinds.
const (
	// KindVCPU is a sandbox virtual CPU.
	KindVCPU EntityKind = iota + 1
	// KindMergeThread is a P²SM splice thread, which runs at the highest
	// priority and preempts whatever occupies its CPU (paper §4.1.3).
	KindMergeThread
	// KindTask is any other schedulable work (host threads, sysbench-style
	// background load in the §5.2 experiment).
	KindTask
)

// String returns the kind's name.
func (k EntityKind) String() string {
	switch k {
	case KindVCPU:
		return "vcpu"
	case KindMergeThread:
		return "merge-thread"
	case KindTask:
		return "task"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Entity is one schedulable unit placed on a run queue.
type Entity struct {
	// ID uniquely names the entity, e.g. "sb3/vcpu7".
	ID string
	// Kind classifies the entity.
	Kind EntityKind
	// Credit is the scheduler sort attribute (credit2-style: the queue is
	// sorted ascending so the least-credit entity runs first).
	Credit int64
	// Sandbox names the owning sandbox for vCPUs, empty otherwise.
	Sandbox string
}

// Element is a placed entity: a node in a queue's sorted list.
type Element = psm.Element[*Entity]

// Observer is notified of every structural change to a queue so that
// P²SM precomputed state tied to the queue stays current ("the updates
// are performed each time ull_runqueue is updated", §4.1.3).
// psm.Precomputed satisfies Observer directly.
type Observer interface {
	TargetInserted(e *Element, pos int) error
	TargetRemoved(pos int) error
}

// Timeslice defaults.
const (
	// DefaultTimeslice approximates credit2's scheduling quantum.
	DefaultTimeslice = 10 * simtime.Millisecond
	// ULLTimeslice is the 1 µs maximum timeslice of a reserved
	// ull_runqueue (paper §4.1.3).
	ULLTimeslice = 1 * simtime.Microsecond
)

// Errors reported by queue operations.
var (
	ErrNotOnQueue  = errors.New("runqueue: element not on this queue")
	ErrWrongTarget = errors.New("runqueue: precomputed state targets a different queue")
)

// Queue is one CPU-sorted run queue.
//
// Queue is not safe for concurrent use: the virtualization system
// serializes run-queue surgery under its scheduler locks, and the
// simulation is single-threaded; the P²SM merge runs on the caller's
// goroutine (MergePSM).
type Queue struct {
	id        int
	reserved  bool
	timeslice simtime.Duration
	list      *psm.List[*Entity]
	load      *pelt.RunqueueLoad
	observers []Observer

	inserts uint64
	removes uint64
}

// New returns an empty run queue with the given id. A reserved queue is a
// ull_runqueue: reserved for uLL sandboxes and running with the 1 µs
// timeslice.
func New(id int, reserved bool) *Queue {
	q := &Queue{
		id:        id,
		reserved:  reserved,
		timeslice: DefaultTimeslice,
		list:      psm.NewList[*Entity](),
		load:      pelt.NewRunqueueLoad(0, 0),
	}
	if reserved {
		q.timeslice = ULLTimeslice
	}
	return q
}

// ID returns the queue's identifier (its CPU index).
func (q *Queue) ID() int { return q.id }

// Reserved reports whether this is a ull_runqueue.
func (q *Queue) Reserved() bool { return q.reserved }

// Timeslice returns the queue's scheduling quantum.
func (q *Queue) Timeslice() simtime.Duration { return q.timeslice }

// Len returns the number of queued entities.
func (q *Queue) Len() int { return q.list.Len() }

// Load returns the queue's lock-protected load variable.
func (q *Queue) Load() *pelt.RunqueueLoad { return q.load }

// List exposes the underlying sorted list so P²SM precomputed state can
// target it. Mutate the queue only through Queue methods.
func (q *Queue) List() *psm.List[*Entity] { return q.list }

// Inserts returns the number of entities ever inserted.
func (q *Queue) Inserts() uint64 { return q.inserts }

// Removes returns the number of entities ever removed.
func (q *Queue) Removes() uint64 { return q.removes }

// Observe registers an observer for structural changes. psm.Precomputed
// values targeting this queue must be registered here; HORSE registers
// one per paused uLL sandbox.
func (q *Queue) Observe(o Observer) { q.observers = append(q.observers, o) }

// Unobserve removes a previously registered observer.
func (q *Queue) Unobserve(o Observer) {
	for i, cur := range q.observers {
		if cur == o {
			q.observers = append(q.observers[:i], q.observers[i+1:]...)
			return
		}
	}
}

// ObserverCount returns the number of registered observers.
func (q *Queue) ObserverCount() int { return len(q.observers) }

// Insert performs the sorted merge of one entity into the queue — the
// vanilla step-④ operation — and notifies observers. It returns the
// placed element and its position.
func (q *Queue) Insert(ent *Entity) (*Element, int, error) {
	if ent == nil {
		return nil, 0, errors.New("runqueue: nil entity")
	}
	e, pos := q.list.Insert(ent.Credit, ent)
	q.inserts++
	for _, o := range q.observers {
		if err := o.TargetInserted(e, pos); err != nil {
			return nil, 0, fmt.Errorf("runqueue: observer rejected insert: %w", err)
		}
	}
	return e, pos, nil
}

// Remove unlinks a previously inserted element (sandbox pause removes its
// vCPUs from their queues) and notifies observers.
func (q *Queue) Remove(e *Element) error {
	pos := q.position(e)
	if pos < 0 {
		return ErrNotOnQueue
	}
	q.list.Remove(e)
	q.removes++
	for _, o := range q.observers {
		if err := o.TargetRemoved(pos); err != nil {
			return fmt.Errorf("runqueue: observer rejected remove: %w", err)
		}
	}
	return nil
}

// PopFront dequeues the least-credit entity for dispatch, notifying
// observers. It returns nil when the queue is empty.
func (q *Queue) PopFront() *Entity {
	e := q.list.Front()
	if e == nil {
		return nil
	}
	// Remove via the common path so observers stay consistent.
	if err := q.Remove(e); err != nil {
		return nil
	}
	return e.Value()
}

// Peek returns the least-credit entity without dequeuing it.
func (q *Queue) Peek() *Entity {
	e := q.list.Front()
	if e == nil {
		return nil
	}
	return e.Value()
}

// position scans for the element's 0-based position, -1 if absent.
func (q *Queue) position(e *Element) int {
	i := 0
	for cur := q.list.Front(); cur != nil; cur = cur.Next() {
		if cur == e {
			return i
		}
		i++
	}
	return -1
}

// NewPrecomputed arms P²SM auxiliary structures over this queue and
// registers them as an observer, so every later queue change keeps them
// current. The caller owns unregistering (Unobserve) when the paused
// sandbox resumes or is destroyed.
func (q *Queue) NewPrecomputed() *psm.Precomputed[*Entity] {
	p := psm.NewPrecomputed(q.list)
	q.Observe(p)
	return p
}

// MergePSM splices p's source into this queue with the O(1) P²SM merge,
// then re-synchronizes every *other* registered observer with each
// spliced element at the position the merge reports for it, so the
// resync costs O(|A|) per observer and never walks the queue. p must
// target this queue and be ready; it is unregistered and consumed by the
// merge. A call rejected before the merge (wrong target, consumed state)
// leaves the observer registrations unchanged.
func (q *Queue) MergePSM(p *psm.Precomputed[*Entity]) (psm.MergeResult, error) {
	if p.Target() != q.list {
		return psm.MergeResult{}, ErrWrongTarget
	}
	if !p.Ready() {
		return psm.MergeResult{}, psm.ErrNotReady
	}
	q.Unobserve(p)

	var resync error
	res, err := p.MergeFunc(func(e *Element, pos int) {
		for _, o := range q.observers {
			if resync == nil {
				resync = o.TargetInserted(e, pos)
			}
		}
	})
	if err != nil {
		return res, err
	}
	q.inserts += uint64(res.Merged)
	if resync != nil {
		return res, fmt.Errorf("runqueue: observer resync: %w", resync)
	}
	return res, nil
}

// Drain removes every entity, notifying observers, and returns the
// drained entities in queue order. Tests and teardown paths use it.
func (q *Queue) Drain() []*Entity {
	var out []*Entity
	for {
		ent := q.PopFront()
		if ent == nil {
			return out
		}
		out = append(out, ent)
	}
}
