// Package psm implements P²SM, the parallel precomputed sorted merge at the
// heart of HORSE (paper §4.1).
//
// P²SM merges a sorted linked list A (in HORSE: merge_vcpus, the paused
// sandbox's vCPUs pre-sorted by the scheduler's sort attribute) into a
// sorted linked list B (in HORSE: the reserved ull_runqueue) in O(1) time,
// independent of the length of either list. The trick is to maintain, while
// the merge is *not* happening, two auxiliary structures:
//
//   - arrayB: a positional index of B — arrayB[i] is the address of B's
//     element at position i;
//   - posA: a map from a position in B to the consecutive run of A elements
//     that belongs immediately after that position (here one slice of
//     runs sorted by position).
//
// With these precomputed, the merge itself is two pointer writes per posA
// key. The paper runs one merge thread per key with no mutual exclusion
// (each touches a disjoint set of next pointers); this package splices the
// keys in turn on the calling goroutine, which yields the same list, and
// the simulator models the threads' cost in virtual time
// (vmm.CostModel.PSMMerge, sched.PriorityMerge).
//
// This file provides the sorted singly-linked list both A and B are built
// from. The list uses a head sentinel so "splice before the first element"
// needs no special casing: position -1 addresses the sentinel.
package psm

// Element is a node of a sorted List. Elements are allocated by their List
// and move between lists during a merge; an Element must belong to at most
// one list at a time.
type Element[V any] struct {
	key   int64
	value V
	next  *Element[V]
}

// Key returns the element's sort key. In HORSE the key is the scheduler's
// sort attribute (remaining credit under a credit2-style scheduler).
func (e *Element[V]) Key() int64 { return e.key }

// Value returns the element's payload.
func (e *Element[V]) Value() V { return e.value }

// Next returns the following element, or nil at the end of the list.
func (e *Element[V]) Next() *Element[V] { return e.next }

// List is a singly-linked list kept sorted by ascending key. Elements with
// equal keys preserve insertion order (FIFO among equals), which is the
// behaviour of a credit-sorted run queue: a newly inserted vCPU queues
// behind already-runnable vCPUs with the same credit.
//
// List is not safe for concurrent mutation.
type List[V any] struct {
	sentinel Element[V]
	length   int
}

// NewList returns an empty sorted list.
func NewList[V any]() *List[V] { return &List[V]{} }

// Len returns the number of elements.
func (l *List[V]) Len() int { return l.length }

// Front returns the first element, or nil if the list is empty.
func (l *List[V]) Front() *Element[V] { return l.sentinel.next }

// head returns the sentinel, the "element before position 0".
func (l *List[V]) head() *Element[V] { return &l.sentinel }

// Insert adds a new element with the given key and value at its sorted
// position and returns it with that 0-based position (what
// InsertPosition would have answered before the insert). Cost is O(n) in
// the list length — this is the sequential sorted merge the vanilla
// resume path performs once per vCPU, and precisely the cost P²SM's
// merge phase avoids.
func (l *List[V]) Insert(key int64, value V) (*Element[V], int) {
	e := &Element[V]{key: key, value: value}
	return e, l.insertElement(e)
}

// insertElement links an existing element (e.g. one migrating from another
// list) at its sorted position and returns that position.
func (l *List[V]) insertElement(e *Element[V]) int {
	prev, pos := &l.sentinel, 0
	for prev.next != nil && prev.next.key <= e.key {
		prev = prev.next
		pos++
	}
	e.next = prev.next
	prev.next = e
	l.length++
	return pos
}

// InsertPosition returns the 0-based position at which an element with the
// given key would be inserted (equivalently: the number of elements with
// key <= the given key). The predecessor of that position is the splice
// point P²SM records in posA.
func (l *List[V]) InsertPosition(key int64) int {
	pos := 0
	for e := l.sentinel.next; e != nil && e.key <= key; e = e.next {
		pos++
	}
	return pos
}

// Remove unlinks e from the list. It reports whether e was found. Cost is
// O(n): the singly-linked representation requires a predecessor scan, as
// in the run-queue structures HORSE patches.
func (l *List[V]) Remove(e *Element[V]) bool {
	for prev := &l.sentinel; prev.next != nil; prev = prev.next {
		if prev.next == e {
			prev.next = e.next
			e.next = nil
			l.length--
			return true
		}
	}
	return false
}

// IsSorted reports whether keys are in non-decreasing order. It always
// holds for lists mutated only through this package; tests use it to
// verify the merge preserves the invariant.
func (l *List[V]) IsSorted() bool {
	e := l.sentinel.next
	if e == nil {
		return true
	}
	for ; e.next != nil; e = e.next {
		if e.next.key < e.key {
			return false
		}
	}
	return true
}

// Clear empties the list. Elements still referenced elsewhere keep their
// payloads but are no longer linked.
func (l *List[V]) Clear() {
	l.sentinel.next = nil
	l.length = 0
}

// SequentialMerge inserts every element of src into dst one by one, the
// way the vanilla resume path merges each vCPU into a run queue (paper
// §3.1 step ④). src is emptied. Cost is O(|src| · |dst|); it exists as the
// reference baseline for P²SM's O(1) merge.
func SequentialMerge[V any](dst, src *List[V]) {
	for e := src.sentinel.next; e != nil; e = src.sentinel.next {
		src.sentinel.next, e.next = e.next, nil
		src.length--
		dst.insertElement(e)
	}
}
