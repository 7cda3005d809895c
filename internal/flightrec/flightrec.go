// Package flightrec implements the retention policy of an SLO flight
// recorder: a fixed-size ring buffer for items that must be kept (SLO
// violators) plus a bounded worst-K set ordered by a caller-supplied
// score (end-to-end latency), so a long run retains full diagnostic
// detail for exactly the triggers worth debugging while everything
// else is dropped after aggregation (DESIGN.md §12).
//
// The buffer is generic over the retained item type — internal/trigtrace
// stores *TriggerTrace span trees in it — and is safe for concurrent
// use: one mutex guards all state, so multiple node goroutines can
// offer traces into a shared recorder (the conservative-PDES cluster
// run loop of DESIGN.md §13 relies on exactly that).
//
// Retention is deterministic: same offer sequence, same scores, same
// retained set. Ties in the worst-K set keep the earlier offer, the
// ring evicts strictly oldest-first, and no wall clock or map iteration
// participates in any decision.
//
// An item the buffer no longer holds can be handed back to its owner:
// the release func given to New runs exactly once per offered item, at
// the moment the item is in neither compartment — when Offer drops it,
// or when the ring or the worst-K set later evicts it and the other
// compartment does not hold it. internal/trigtrace recycles its traces
// this way (DESIGN.md §12).
package flightrec

import (
	"sync"

	"github.com/horse-faas/horse/internal/simtime"
)

// Reason says why (or whether) an offered item was retained.
type Reason string

// The retention outcomes of one Offer.
const (
	// ReasonMustKeep means the item entered the must-keep ring (an SLO
	// violator or failed trigger).
	ReasonMustKeep Reason = "must-keep"
	// ReasonWorstK means the item entered the worst-K set on score.
	ReasonWorstK Reason = "worst-k"
	// ReasonDropped means the item was aggregated but its full detail
	// was not retained.
	ReasonDropped Reason = "dropped"
)

// Default sizing for New when zero values are passed.
const (
	// DefaultCapacity bounds the must-keep ring.
	DefaultCapacity = 256
	// DefaultWorstK bounds the worst-K set.
	DefaultWorstK = 8
)

// scored pairs an item with its score and offer sequence for the
// worst-K ordering. inRing marks a worst-K item the must-keep ring
// also holds, so evicting it from one compartment does not release it.
type scored[T any] struct {
	item   T
	score  simtime.Duration
	seq    uint64
	inRing bool
}

// slot is one must-keep ring entry; seq finds the item in the worst-K
// set when the ring evicts it.
type slot[T any] struct {
	item T
	seq  uint64
}

// Buffer is a concurrent, deterministic flight-recorder retention
// buffer. The zero value is unusable; build one with New.
//
// In the sharded cluster run the buffer belongs to the coordinator's
// recorder: traces are offered during finalize, strictly between serve
// barriers, so the whole state is coordinator-owned (the mutex stays as
// defense in depth for non-PDES embedders).
//
//horselint:coordinator
type Buffer[T any] struct {
	mu      sync.Mutex
	score   func(T) simtime.Duration
	release func(T)

	ring []slot[T]
	head int
	cap  int

	worst []scored[T] // ascending by (score, then descending seq): worst[0] is the eviction candidate
	k     int

	offered uint64
}

// New builds a buffer. capacity bounds the must-keep ring and worstK
// the worst-K set (zero or negative select the defaults); score ranks
// items for worst-K retention and must be pure. release, when non-nil,
// receives each offered item exactly once, when the buffer stops
// holding it; it runs under the buffer's lock and must not call back
// into the buffer.
func New[T any](capacity, worstK int, score func(T) simtime.Duration, release func(T)) *Buffer[T] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if worstK <= 0 {
		worstK = DefaultWorstK
	}
	return &Buffer[T]{cap: capacity, k: worstK, score: score, release: release}
}

// Offer submits one item. mustKeep items enter the ring (evicting the
// oldest when full); every item additionally competes for the worst-K
// set by score. The returned reason is the strongest retention that
// applied: must-keep beats worst-k beats dropped. A dropped item, and
// any item this offer evicts from the last compartment holding it, is
// released before Offer returns.
//
//horselint:coordinator
func (b *Buffer[T]) Offer(item T, mustKeep bool) Reason {
	if b == nil {
		return ReasonDropped
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	seq := b.offered
	b.offered++
	reason := ReasonDropped
	if mustKeep {
		if len(b.ring) < b.cap {
			b.ring = append(b.ring, slot[T]{item: item, seq: seq})
		} else {
			old := b.ring[b.head]
			b.ring[b.head] = slot[T]{item: item, seq: seq}
			b.head = (b.head + 1) % b.cap
			if !b.leaveRing(old.seq) {
				b.free(old.item)
			}
		}
		reason = ReasonMustKeep
	}
	if b.offerWorst(item, seq, mustKeep) && reason == ReasonDropped {
		reason = ReasonWorstK
	}
	if reason == ReasonDropped {
		b.free(item)
	}
	return reason
}

// leaveRing clears the in-ring mark of the worst-K entry offered as
// seq and reports whether the worst-K set still holds it. Callers hold
// b.mu.
//
//horselint:coordinator
func (b *Buffer[T]) leaveRing(seq uint64) bool {
	for i := range b.worst {
		if b.worst[i].seq == seq {
			b.worst[i].inRing = false
			return true
		}
	}
	return false
}

// free hands an item the buffer no longer holds to the release func.
//
//horselint:coordinator
func (b *Buffer[T]) free(item T) {
	if b.release != nil {
		b.release(item)
	}
}

// offerWorst inserts the item into the worst-K set if it outranks the
// current minimum, releasing the entry it displaces unless the ring
// still holds that one. Ties keep the earlier offer (strict >
// comparison), so retention never depends on insertion luck. Callers
// hold b.mu.
//
//horselint:coordinator
func (b *Buffer[T]) offerWorst(item T, seq uint64, inRing bool) bool {
	s := b.score(item)
	if len(b.worst) >= b.k {
		if s <= b.worst[0].score {
			return false
		}
		if out := b.worst[0]; !out.inRing {
			b.free(out.item)
		}
		copy(b.worst, b.worst[1:])
		b.worst = b.worst[:len(b.worst)-1]
	}
	entry := scored[T]{item: item, score: s, seq: seq, inRing: inRing}
	// Insert keeping ascending score order; among equal scores the later
	// offer sits earlier (closer to eviction), so ties evict newest-first
	// and the earliest offer survives longest.
	i := 0
	for i < len(b.worst) && (b.worst[i].score < s || (b.worst[i].score == s && b.worst[i].seq > seq)) {
		i++
	}
	b.worst = append(b.worst, scored[T]{})
	copy(b.worst[i+1:], b.worst[i:])
	b.worst[i] = entry
	return true
}

// Reset empties the ring and the worst-K set and zeroes every counter,
// returning the buffer to its freshly built state (capacities kept).
// The retained items are dropped for collection but not handed to the
// release func: a caller may still hold them. The cluster resets its
// recorder's buffer at the top of each run so back-to-back runs on one
// cluster cannot leak the previous run's retained traces.
//
//horselint:coordinator
func (b *Buffer[T]) Reset() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	clear(b.ring)
	b.ring = b.ring[:0]
	b.head = 0
	clear(b.worst)
	b.worst = b.worst[:0]
	b.offered = 0
}

// Ring returns the must-keep ring, oldest first. The caller owns the
// slice.
func (b *Buffer[T]) Ring() []T {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]T, 0, len(b.ring))
	for _, s := range b.ring[b.head:] {
		out = append(out, s.item)
	}
	for _, s := range b.ring[:b.head] {
		out = append(out, s.item)
	}
	return out
}

// Worst returns the worst-K set in descending score order (ties in
// offer order). The caller owns the slice.
func (b *Buffer[T]) Worst() []T {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]T, 0, len(b.worst))
	for i := len(b.worst) - 1; i >= 0; i-- {
		out = append(out, b.worst[i].item)
	}
	return out
}
